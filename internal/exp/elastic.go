package exp

import (
	"fmt"
	"strings"
	"time"

	"digruber/internal/digruber"
	"digruber/internal/grid"
	"digruber/internal/grubsim"
	"digruber/internal/netsim"
	"digruber/internal/tsdb"
	"digruber/internal/vtime"
)

// ext-elastic: the full elastic-fleet control loop — the paper's
// Section 5 reconfiguration in both directions. A scripted diurnal
// workload with a flash crowd drives a Manual-clock fleet; the
// Controller grows it through factory deployment + snapshot bootstrap
// and shrinks it back through the graceful drain protocol. The recorded
// arrival trace then replays through GRUB-SIM's static dynamic
// provisioner, cross-checking the online fleet trajectory against the
// simulator's offline answer for the same load.

// elasticSteps is the scripted run length in one-minute steps.
const elasticSteps = 140

// elasticOffered is the scripted offered load (jobs per one-minute
// step): a night floor, a diurnal morning ramp, a flash crowd, its
// decay back to the daytime plateau, and night again.
func elasticOffered(step int) int {
	switch {
	case step < 20: // night floor
		return 2
	case step < 40: // morning ramp, 2 -> 10
		return 2 + (step-19)*8/20
	case step < 60: // flash crowd
		return 40
	case step < 80: // decay to the daytime plateau
		return 10
	default: // night again
		return 2
	}
}

// elasticDemandHigh/Low are the controller's per-member offered-rate
// thresholds (1/s): scale up at 6 jobs/min per member, allow scale-down
// at 2 jobs/min per member.
const (
	elasticDemandHigh = 6.0 / 60
	elasticDemandLow  = 2.0 / 60
)

// elasticStep is one step of the recorded run.
type elasticStep struct {
	Step    int
	Offered int
	Handled int
	Fleet   int
	Action  digruber.ControllerAction
}

// elasticOutcome is everything a deterministic elastic run observes.
type elasticOutcome struct {
	Steps       []elasticStep
	Offered     int
	Handled     int
	PeakFleet   int
	FinalFleet  int
	Deploys     int
	Retires     int
	RetireSteps []int
	// LostDuringRetirement counts requests not handled by the mesh in
	// any step where a member was drained and retired — the protocol's
	// zero-loss acceptance.
	LostDuringRetirement int
	Trace                grubsim.Trace
}

// runElasticScenario drives the scripted workload through a live
// Controller-managed fleet under a Manual clock. Every step submits the
// scripted jobs synchronously, quiesces, advances one virtual minute,
// samples the metrics plane, runs one exchange round per member, and
// evaluates the controller — so the whole run, metrics registry
// included, is a pure function of the script.
func runElasticScenario() (elasticOutcome, *tsdb.Registry, error) {
	clock := vtime.NewManual(Epoch)
	reg := tsdb.New(0)
	sites := idleSites("el-site-%d", 4, 600)
	f, err := NewFleet(FleetSpec{
		Clock: clock, Metrics: reg, Points: 1, Clients: 8,
		Sites: func() []grid.Status { return sites },
		Point: func(i int, c *digruber.Config) {
			c.Name = fmt.Sprintf("el-dp-%d", i)
			c.Addr = fmt.Sprintf("el/dp-%d", i)
		},
		Client: func(i int, c *digruber.ClientConfig) {
			c.Name = fmt.Sprintf("el-client-%d", i)
			c.RNG = netsim.Stream(int64(i), "exp.elastic.client")
		},
	})
	if err != nil {
		return elasticOutcome{}, nil, err
	}
	defer f.Close()
	clients := f.Clients()

	offered := reg.Counter("workload/offered")

	ctl, err := digruber.NewController(digruber.ControllerConfig{
		Clock: clock, Factory: f.Deploy, Metrics: reg, MaxDPs: 4,
		ScaleUpAfter: 2, ScaleDownAfter: 4,
		UpCooldown: 3 * time.Minute, DownCooldown: 6 * time.Minute,
		DrainTimeout: 10 * time.Minute,
		DemandSeries: "workload/offered",
		Signals: digruber.SignalThresholds{
			DemandHighPerDP: elasticDemandHigh,
			DemandLowPerDP:  elasticDemandLow,
			Window:          4 * time.Minute,
		},
	}, f.Points())
	if err != nil {
		return elasticOutcome{}, nil, err
	}
	ctl.ManageClients(clients)

	var out elasticOutcome
	seq := 0
	for step := 0; step < elasticSteps; step++ {
		n := elasticOffered(step)
		handled := 0
		for k := 0; k < n; k++ {
			ci := seq % len(clients)
			dec := f.Submit(ci, fmt.Sprintf("el-%05d", seq), "atlas", 10*time.Minute)
			if dec.Handled {
				handled++
			}
			// The arrival trace spreads the step's submissions evenly over
			// its minute — what an open-loop replay of "n jobs during this
			// minute" means.
			out.Trace = append(out.Trace, grubsim.Arrival{
				At:     time.Duration(step)*time.Minute + time.Duration(k)*time.Minute/time.Duration(n),
				Client: ci,
			})
			seq++
		}
		offered.Add(int64(n))
		if err := f.Tick(ctl.Fleet(), true); err != nil {
			return elasticOutcome{}, nil, err
		}
		act, err := ctl.Evaluate()
		if err != nil {
			return elasticOutcome{}, nil, fmt.Errorf("exp: elastic step %d: %w", step, err)
		}

		fleet := len(ctl.Fleet())
		out.Steps = append(out.Steps, elasticStep{Step: step, Offered: n, Handled: handled, Fleet: fleet, Action: act})
		out.Offered += n
		out.Handled += handled
		if fleet > out.PeakFleet {
			out.PeakFleet = fleet
		}
		if act == digruber.ActionScaleDown {
			out.RetireSteps = append(out.RetireSteps, step)
			out.LostDuringRetirement += n - handled
		}
	}
	out.FinalFleet = len(ctl.Fleet())
	out.Deploys = len(ctl.Deployments())
	out.Retires = len(ctl.Retirements())
	return out, reg, nil
}

// elasticSimParams calibrates GRUB-SIM to the controller's capacity
// model: one worker at a 10 s service mean is exactly the 6 jobs/min
// per member the online loop scales up at, so the simulator's static
// provisioning answer for the recorded trace is directly comparable to
// the live fleet trajectory.
func elasticSimParams() grubsim.Params {
	return grubsim.Params{
		Seed:            1,
		ServiceMean:     10 * time.Second,
		ServiceSigma:    0.3,
		Workers:         1,
		QueueLimit:      512,
		WANLatency:      60 * time.Millisecond,
		WANSigma:        0.4,
		Timeout:         30 * time.Second,
		InitialDPs:      1,
		MaxDPs:          4,
		Dynamic:         true,
		MonitorInterval: time.Minute,
		ResponseBound:   25 * time.Second,
	}
}

// runElasticExtension (ext-elastic) runs the scripted elastic scenario
// and the GRUB-SIM cross-check, and reports the fleet trajectory.
func runElasticExtension(scale Scale) (Report, error) {
	out, reg, err := runElasticScenario()
	if err != nil {
		return Report{}, err
	}
	sim, err := grubsim.RunTrace(elasticSimParams(), out.Trace)
	if err != nil {
		return Report{}, err
	}

	var b strings.Builder
	b.WriteString("== Extension: elastic fleet controller (diurnal + flash crowd, Manual clock) ==\n")
	fmt.Fprintf(&b, "offered %d jobs over %d min; handled %d (%.1f%%)\n",
		out.Offered, elasticSteps, out.Handled, pctOf(out.Handled, out.Offered))
	fmt.Fprintf(&b, "fleet trajectory: start 1, peak %d, final %d (%d deploys, %d drains)\n",
		out.PeakFleet, out.FinalFleet, out.Deploys, out.Retires)
	for _, s := range out.Steps {
		if s.Action != digruber.ActionNone {
			fmt.Fprintf(&b, "  t+%3dm %-10s -> fleet %d (offered %d/min)\n", s.Step, s.Action, s.Fleet, s.Offered)
		}
	}
	fmt.Fprintf(&b, "retirement loss: %d of the requests offered during drain steps were lost\n",
		out.LostDuringRetirement)
	fmt.Fprintf(&b, "GRUB-SIM static answer for the same trace: %d decision points (added %d)\n",
		sim.FinalDPs, sim.AddedDPs)
	fmt.Fprintf(&b, "online peak vs static: %d vs %d\n", out.PeakFleet, sim.FinalDPs)
	b.WriteString("\nReading: the controller rides the diurnal ramp up, absorbs the flash\n")
	b.WriteString("crowd at the fleet cap, and drains back to one member at night. Every\n")
	b.WriteString("drain rebinds the victim's clients first, settles in-flight work, and\n")
	b.WriteString("verifies the final exchange flush against the cursor high-water mark —\n")
	b.WriteString("so retirement loses nothing. The simulator, replaying the identical\n")
	b.WriteString("arrival trace against the same per-member capacity, lands on the same\n")
	b.WriteString("peak fleet: the online hysteresis tracks the offline answer.\n")

	rows := make([]Row, 0, len(out.Steps)+1)
	rows = append(rows, Row{
		"row": "elastic", "offered": out.Offered, "handled": out.Handled,
		"peak_fleet": out.PeakFleet, "final_fleet": out.FinalFleet,
		"deploys": out.Deploys, "retires": out.Retires,
		"lost_during_retirement": out.LostDuringRetirement,
		"sim_final_dps":          sim.FinalDPs, "sim_added_dps": sim.AddedDPs,
	})
	for _, s := range out.Steps {
		rows = append(rows, Row{
			"row": "elastic-step", "step": s.Step, "offered": s.Offered,
			"handled": s.Handled, "fleet": s.Fleet, "action": string(s.Action),
		})
	}

	if MetricsOutputPath != "" {
		if err := writeOutput(MetricsOutputPath, reg.WriteJSONL); err != nil {
			return Report{}, err
		}
		fmt.Fprintf(&b, "\nmetrics time series written to %s\n", MetricsOutputPath)
	}
	return Report{Text: b.String(), Rows: rows}, nil
}

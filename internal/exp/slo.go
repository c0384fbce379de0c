package exp

import (
	"fmt"
	"io"
	"strings"
	"time"

	"digruber/internal/digruber"
	"digruber/internal/grid"
	"digruber/internal/netsim"
	"digruber/internal/slo"
	"digruber/internal/trace"
	"digruber/internal/tsdb"
	"digruber/internal/vtime"
)

// ext-slo: the per-VO SLO plane end to end — exemplar-linked latency
// histograms, multi-window burn-rate alerting, and SLO-driven scaling.
// A scripted diurnal workload with a flash crowd runs through a live
// Controller-managed fleet on a Manual clock; the only pressure signal
// the controller sees is the slo_burn firing count, so the fleet
// trajectory is attributable to the SLO plane alone. The run asserts
// the SRE promise the alerts make: the burn-rate alert fires while the
// VO is merely *missing latency* — minutes before its goodput collapses
// below the floor — early enough that the scale-up lands before the
// outage.

// AlertsOutputPath, when non-empty (cmd/experiments -alerts-out), makes
// ext-slo dump its alert-transition log there as JSONL — the second
// stream of the byte-identical replay gate, alongside the metrics dump.
var AlertsOutputPath string

// sloSteps is the scripted run length in one-minute steps.
const sloSteps = 80

// sloOffered is the scripted offered load (jobs per one-minute step):
// a night floor, a morning ramp that overruns one member's capacity by
// a single job per minute, a flash crowd, and the decay back to night.
func sloOffered(step int) int {
	switch {
	case step < 15: // night floor
		return 6
	case step < 30: // morning ramp: 1 job/min over one member's capacity
		return 13
	case step < 46: // flash crowd
		return 40
	default: // decay back to the night floor
		return 6
	}
}

// sloCapPerDP is the modeled per-member service capacity (jobs per
// minute). The queueing model below is deliberately simple — a fluid
// backlog drained at fleet*cap — because the experiment is about the
// *observability* of degradation, not its microdynamics: what matters
// is that latency degrades smoothly as backlog accumulates, so the
// burn-rate alert has something to catch before goodput dies.
const sloCapPerDP = 12

// Modeled latency: a base service time plus the backlog drain time at
// the current fleet capacity. With the 5s objective threshold and the
// 30s usefulness cutoff, one minute of backlog at one member (5s of
// drain) is enough to miss the SLO, while goodput only collapses once
// the backlog is six times deeper — the gap the burn-rate alert lives in.
const (
	sloBaseLatency   = 0.5  // seconds
	sloLatencyCut    = 5.0  // objective threshold (seconds)
	sloUsefulCut     = 30.0 // past this a decision is useless: no goodput
	sloTargetAtt     = 0.9
	sloAtlasFloor    = 0.02 // goodput floor, handled/s
	sloCmsFloor      = 0.01
	sloWarmupSteps   = 6 // WindowRate needs points; skip the cold start
	sloGoodputWindow = 5 * time.Minute
)

// sloLatencyBuckets bracket the model: the base latency, the objective
// threshold, and the usefulness cutoff are all bucket bounds, so
// attainment reads exactly off the histogram.
var sloLatencyBuckets = []float64{1, 5, 30}

// sloVO assigns jobs to VOs 2:1 atlas:cms.
func sloVO(seq int) string {
	if seq%3 == 2 {
		return "cms"
	}
	return "atlas"
}

// sloStep is one step of the recorded run.
type sloStep struct {
	Step    int
	Offered int
	Useful  int
	Backlog int
	Fleet   int
	Firing  int
	Action  digruber.ControllerAction
	// Assessments are the per-VO evaluations after this step, in
	// sorted-VO order.
	Assessments []slo.Assessment
}

// sloOutcome is everything a deterministic ext-slo run observes.
type sloOutcome struct {
	Steps       []sloStep
	Transitions []slo.Transition

	Offered    int
	Useful     int
	PeakFleet  int
	FinalFleet int

	// FirstFiringStep is the step of the first pending->firing
	// transition; FirstGoodputBreachStep the first post-warmup step where
	// any VO's goodput floor read as missed. The headline assertion is
	// FirstFiringStep < FirstGoodputBreachStep. -1 when never.
	FirstFiringStep        int
	FirstGoodputBreachStep int
	// ScaleUpWhileFiring reports whether a scale-up landed on a step with
	// a firing alert — the slo_burn -> controller linkage.
	ScaleUpWhileFiring bool
	// AlertsOnStatus reports whether a fleet member's StatusReply carried
	// the alert summary while an alert was firing.
	AlertsOnStatus bool
}

// runSLOScenario drives the scripted workload through a live fleet.
// Jobs are real traced Schedule calls (so every latency observation
// carries the decision's trace ID as its exemplar); their *latencies*
// come from the fluid backlog model, observed into the per-VO windowed
// histograms the SLO evaluator reads back. Each step: submit, observe,
// exchange, quiesce, advance one virtual minute, sample, evaluate the
// objectives, evaluate the controller. The whole run — metrics registry,
// transition log, the trace records col collects — is a pure function
// of the script.
func runSLOScenario(col *trace.Collector) (sloOutcome, *tsdb.Registry, error) {
	clock := vtime.NewManual(Epoch)
	reg := tsdb.New(0)
	col.RegisterMetrics(reg)

	ev, err := slo.New(slo.Config{
		Registry: reg,
		Objectives: []slo.Objective{
			{
				VO: "atlas", LatencySeries: "vo/atlas/latency_s",
				LatencyThreshold: sloLatencyCut, LatencyTarget: sloTargetAtt,
				GoodputSeries: "vo/atlas/useful", GoodputFloor: sloAtlasFloor,
			},
			{
				VO: "cms", LatencySeries: "vo/cms/latency_s",
				LatencyThreshold: sloLatencyCut, LatencyTarget: sloTargetAtt,
				GoodputSeries: "vo/cms/useful", GoodputFloor: sloCmsFloor,
			},
		},
		FastWindow: sloGoodputWindow, SlowWindow: 15 * time.Minute,
		BurnThreshold: 1, PendingFor: 2 * time.Minute, ResolveAfter: 3 * time.Minute,
	})
	if err != nil {
		return sloOutcome{}, nil, err
	}
	alertSource := func() []digruber.AlertSummary {
		al := ev.Alerts()
		if len(al) == 0 {
			return nil
		}
		out := make([]digruber.AlertSummary, len(al))
		for i, a := range al {
			out[i] = digruber.AlertSummary{VO: a.VO, State: a.State.String(), Since: a.Since, Burn: a.BurnFast}
		}
		return out
	}

	sites := idleSites("slo-site-%d", 4, 600)
	f, err := NewFleet(FleetSpec{
		Clock: clock, Metrics: reg, Points: 1, Clients: 8,
		Sites: func() []grid.Status { return sites },
		Point: func(i int, c *digruber.Config) {
			c.Name = fmt.Sprintf("slo-dp-%d", i)
			c.Addr = fmt.Sprintf("slo/dp-%d", i)
		},
		Client: func(i int, c *digruber.ClientConfig) {
			c.Name = fmt.Sprintf("slo-client-%d", i)
			c.RNG = netsim.Stream(int64(i), "exp.slo.client")
			c.Tracer = trace.New(trace.Config{Actor: c.Name, Seed: int64(i + 1), Clock: clock, Collector: col})
		},
	})
	if err != nil {
		return sloOutcome{}, nil, err
	}
	defer f.Close()
	clients := f.Clients()
	// Every member — seed and dynamically deployed alike — serves the
	// fleet-wide alert summary on its Status reply.
	f.Points()[0].SetAlertSource(alertSource)
	deploy := func(idx int) (*digruber.DecisionPoint, error) {
		dp, err := f.Deploy(idx)
		if err == nil {
			dp.SetAlertSource(alertSource)
		}
		return dp, err
	}

	latency := map[string]*tsdb.Histogram{
		"atlas": reg.Histogram("vo/atlas/latency_s", sloLatencyBuckets),
		"cms":   reg.Histogram("vo/cms/latency_s", sloLatencyBuckets),
	}
	useful := map[string]*tsdb.Counter{
		"atlas": reg.Counter("vo/atlas/useful"),
		"cms":   reg.Counter("vo/cms/useful"),
	}

	ctl, err := digruber.NewController(digruber.ControllerConfig{
		Clock: clock, Factory: deploy, Metrics: reg,
		Interval: time.Minute, MinDPs: 1, MaxDPs: 3,
		ScaleUpAfter: 2, ScaleDownAfter: 4,
		UpCooldown: 3 * time.Minute, DownCooldown: 6 * time.Minute,
		DrainTimeout: 10 * time.Minute,
		// No demand, queue or throttle wiring: the firing slo_burn alert
		// is the only pressure the controller can see.
		SLOFiring: ev.FiringCount,
		Signals:   digruber.SignalThresholds{Window: 4 * time.Minute},
	}, f.Points())
	if err != nil {
		return sloOutcome{}, nil, err
	}
	ctl.ManageClients(clients)

	out := sloOutcome{FirstFiringStep: -1, FirstGoodputBreachStep: -1}
	backlog := 0
	seq := 0
	for step := 0; step < sloSteps; step++ {
		n := sloOffered(step)
		capacity := sloCapPerDP * len(ctl.Fleet())
		// Every job this minute waits behind the start-of-step backlog; a
		// small per-submission increment keeps the worst exemplar at the
		// back of the minute's queue.
		lat := sloBaseLatency + 60*float64(backlog)/float64(capacity)
		stepUseful := 0
		for k := 0; k < n; k++ {
			ci := seq % len(clients)
			vo := sloVO(seq)
			dec := f.Submit(ci, fmt.Sprintf("slo-%05d", seq), vo, 10*time.Minute)
			if dec.Err != nil {
				return sloOutcome{}, nil, fmt.Errorf("exp: slo step %d job %d: %w", step, k, dec.Err)
			}
			l := lat + float64(k)*0.01
			latency[vo].ObserveTrace(l, dec.TraceID, clock.Now())
			if l <= sloUsefulCut {
				useful[vo].Inc()
				stepUseful++
			}
			seq++
		}
		backlog += n - capacity
		if backlog < 0 {
			backlog = 0
		}
		if err := f.Tick(ctl.Fleet(), true); err != nil {
			return sloOutcome{}, nil, err
		}
		assessments := ev.Evaluate(clock.Now())
		act, err := ctl.Evaluate()
		if err != nil {
			return sloOutcome{}, nil, fmt.Errorf("exp: slo step %d: %w", step, err)
		}

		firing := ev.FiringCount()
		if firing > 0 && !out.AlertsOnStatus {
			if st := ctl.Fleet()[0].Status(); len(st.Alerts) > 0 {
				out.AlertsOnStatus = true
			}
		}
		if act == digruber.ActionScaleUp && firing > 0 {
			out.ScaleUpWhileFiring = true
		}
		if out.FirstGoodputBreachStep < 0 && step >= sloWarmupSteps {
			for _, as := range assessments {
				if !as.GoodputOK {
					out.FirstGoodputBreachStep = step
					break
				}
			}
		}

		fleet := len(ctl.Fleet())
		out.Steps = append(out.Steps, sloStep{
			Step: step, Offered: n, Useful: stepUseful, Backlog: backlog,
			Fleet: fleet, Firing: firing, Action: act, Assessments: assessments,
		})
		out.Offered += n
		out.Useful += stepUseful
		if fleet > out.PeakFleet {
			out.PeakFleet = fleet
		}
	}
	out.FinalFleet = len(ctl.Fleet())
	out.Transitions = ev.Transitions()
	for _, tr := range out.Transitions {
		if tr.To != slo.StateFiring {
			continue
		}
		// Evaluations run at Epoch+(step+1)m, so the transition's step is
		// one less than its minute offset.
		step := int(tr.At.Sub(Epoch)/time.Minute) - 1
		if out.FirstFiringStep < 0 || step < out.FirstFiringStep {
			out.FirstFiringStep = step
		}
	}
	return out, reg, nil
}

// runSLOExtension (ext-slo) runs the scripted SLO scenario and reports
// the alert timeline against the fleet and goodput trajectories.
func runSLOExtension(scale Scale) (Report, error) {
	out, reg, err := runSLOScenario(trace.NewCollector(0))
	if err != nil {
		return Report{}, err
	}

	var b strings.Builder
	b.WriteString("== Extension: per-VO SLO plane (burn-rate alerts driving the fleet) ==\n")
	fmt.Fprintf(&b, "offered %d jobs over %d min; %d useful (%.1f%%)\n",
		out.Offered, sloSteps, out.Useful, pctOf(out.Useful, out.Offered))
	fmt.Fprintf(&b, "fleet trajectory: start 1, peak %d, final %d\n", out.PeakFleet, out.FinalFleet)
	fmt.Fprintf(&b, "first burn-rate alert fired at t+%dm; first goodput-floor breach at t+%dm\n",
		out.FirstFiringStep, out.FirstGoodputBreachStep)
	for _, tr := range out.Transitions {
		fmt.Fprintf(&b, "  t+%3dm %-5s %-8s -> %-8s (burn fast %.2f, slow %.2f)\n",
			int(tr.At.Sub(Epoch)/time.Minute)-1, tr.VO, tr.FromState, tr.ToState, tr.BurnFast, tr.BurnSlow)
	}
	for _, s := range out.Steps {
		if s.Action != digruber.ActionNone {
			fmt.Fprintf(&b, "  t+%3dm %-10s -> fleet %d (offered %d/min, %d alert(s) firing)\n",
				s.Step, s.Action, s.Fleet, s.Offered, s.Firing)
		}
	}
	fmt.Fprintf(&b, "alert summary rode a StatusReply while firing: %v\n", out.AlertsOnStatus)
	// The drill-down's entry point: each VO's slowest sample still held
	// as a bucket exemplar, by the trace ID digruber-trace -trace takes.
	for _, vo := range []string{"atlas", "cms"} {
		var worst tsdb.Exemplar
		for _, ex := range reg.Exemplars("vo/" + vo + "/latency_s") {
			if ex.Valid() && ex.V >= worst.V {
				worst = ex
			}
		}
		fmt.Fprintf(&b, "slowest %s sample held as an exemplar: %.1fs at t+%dm, trace %016x\n",
			vo, worst.V, int(worst.T.Sub(Epoch)/time.Minute), worst.Trace)
	}
	b.WriteString("\nReading: the morning ramp overruns one member by a single job per\n")
	b.WriteString("minute — goodput still looks healthy, but latency creeps past the 5s\n")
	b.WriteString("objective and both burn windows light up. The alert fires on the\n")
	b.WriteString("*budget* being eaten, minutes before the backlog is deep enough to\n")
	b.WriteString("starve goodput, and the controller — whose only pressure signal here\n")
	b.WriteString("is the firing alert — scales the fleet while the outage is still\n")
	b.WriteString("avoidable. Every latency sample carries its trace ID as a bucket\n")
	b.WriteString("exemplar, so each p99 spike resolves to the offending span tree.\n")

	rows := make([]Row, 0, len(out.Steps)+len(out.Transitions)+1)
	rows = append(rows, Row{
		"row": "slo", "offered": out.Offered, "useful": out.Useful,
		"peak_fleet": out.PeakFleet, "final_fleet": out.FinalFleet,
		"first_firing_step":         out.FirstFiringStep,
		"first_goodput_breach_step": out.FirstGoodputBreachStep,
		"scale_up_while_firing":     out.ScaleUpWhileFiring,
		"alerts_on_status":          out.AlertsOnStatus,
	})
	for _, tr := range out.Transitions {
		rows = append(rows, Row{
			"row": "slo-transition", "vo": tr.VO, "from": tr.FromState, "to": tr.ToState,
			"step":      int(tr.At.Sub(Epoch)/time.Minute) - 1,
			"burn_fast": tr.BurnFast, "burn_slow": tr.BurnSlow,
		})
	}
	for _, s := range out.Steps {
		row := Row{
			"row": "slo-step", "step": s.Step, "offered": s.Offered,
			"useful": s.Useful, "backlog": s.Backlog, "fleet": s.Fleet,
			"firing": s.Firing, "action": string(s.Action),
		}
		for _, as := range s.Assessments {
			row["attain_fast_"+as.VO] = as.AttainFast
			row["burn_fast_"+as.VO] = as.BurnFast
			row["goodput_"+as.VO] = as.Goodput
			row["goodput_ok_"+as.VO] = as.GoodputOK
		}
		rows = append(rows, row)
	}

	if MetricsOutputPath != "" {
		if err := writeOutput(MetricsOutputPath, reg.WriteJSONL); err != nil {
			return Report{}, err
		}
		fmt.Fprintf(&b, "\nmetrics time series written to %s\n", MetricsOutputPath)
	}
	if AlertsOutputPath != "" {
		err := writeOutput(AlertsOutputPath, func(w io.Writer) error {
			return slo.WriteTransitionsJSONL(w, out.Transitions)
		})
		if err != nil {
			return Report{}, err
		}
		fmt.Fprintf(&b, "alert transitions written to %s\n", AlertsOutputPath)
	}
	return Report{Text: b.String(), Rows: rows}, nil
}

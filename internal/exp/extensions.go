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
	"digruber/internal/wire"
)

// extensionExperiments implement the paper's future-work proposals:
//
//   - ext-coupling: "the performance of DI-GRUBER could be enhanced ...
//     by a tighter coupling between the resource broker and the job
//     manager; this approach would reduce the complexity of the
//     communication from two layers to one" — compared head to head.
//   - ext-gt4c: "DI-GRUBER performance can be improved further by
//     porting it to a C-based Web services core, such as is supported
//     in GT4" — the GT4C profile vs GT3/GT4.
//   - ext-dynamic-live: the Section 5 dynamic reconfiguration running
//     live (the paper only simulated it): an overloaded fleet grows
//     itself and rebalances clients mid-run.
//   - ext-lan: the conclusion's observation that performance would be
//     significantly better in a LAN environment.
func extensionExperiments() []Experiment {
	return []Experiment{
		{ID: "ext-coupling", Title: "Extension: one-layer broker/job-manager coupling", Run: runCouplingExtension},
		{ID: "ext-gt4c", Title: "Extension: C-based WS core (GT4C) stack", Run: runGT4CExtension},
		{ID: "ext-dynamic-live", Title: "Extension: live dynamic decision-point provisioning", Run: runDynamicLiveExtension},
		{ID: "ext-lan", Title: "Extension: LAN vs WAN deployment", Run: runLANExtension},
		{ID: "ext-trace-breakdown", Title: "Extension: per-phase latency attribution via distributed tracing", Run: runTraceBreakdown},
		{ID: "ext-trace-replay", Title: "Extension: GRUB-SIM replaying a live-run trace", Run: runTraceReplayExtension},
		{ID: "ext-failure", Title: "Extension: broker crash-recovery under a seeded fault plane", Run: runFailureExtension},
		{ID: "ext-divergence", Title: "Extension: view divergence vs scheduling accuracy (metrics plane)", Run: runDivergence},
		{ID: "ext-overload", Title: "Extension: end-to-end overload control under saturation", Run: runOverloadExtension},
		{ID: "ext-elastic", Title: "Extension: elastic fleet controller with graceful drain", Run: runElasticExtension},
		{ID: "ext-gossip", Title: "Extension: peer-sampling gossip dissemination at 10-100 decision points", Run: runGossipExtension},
		{ID: "ext-slo", Title: "Extension: per-VO SLO plane with burn-rate alerting", Run: runSLOExtension},
		{ID: "ext-recovery", Title: "Extension: write-ahead durability under a fleet-wide crash", Run: runRecoveryExtension},
	}
}

// runTraceReplayExtension closes the loop the paper describes: run the
// live emulation, record its request arrival trace, and feed that trace
// to GRUB-SIM's dynamic provisioner to decide how many decision points
// the recorded load needs.
func runTraceReplayExtension(scale Scale) (Report, error) {
	live, err := RunScenario(ScenarioConfig{
		Name:    "ext-trace-live",
		Scale:   scale,
		Profile: wire.GT3(),
		DPs:     1,
	})
	if err != nil {
		return Report{}, err
	}
	if len(live.Trace) == 0 {
		return Report{}, fmt.Errorf("exp: live run produced an empty trace")
	}
	p := grubsim.GT3Params(1)
	p.Dynamic = true
	p.Duration = 0 // derive from the trace span
	sim, err := grubsim.RunTrace(p, live.Trace)
	if err != nil {
		return Report{}, err
	}
	var b strings.Builder
	b.WriteString("== Extension: GRUB-SIM on a recorded live trace (GT3, from 1 DP) ==\n")
	fmt.Fprintf(&b, "live run: %d requests from %d clients over %s (peak %.2f q/s)\n",
		len(live.Trace), live.Config.Clients, live.Trace.Span().Round(time.Second),
		live.DiPerF.PeakThroughput)
	fmt.Fprintf(&b, "replay:   handled=%d timed-out=%d shed=%d mean response=%s\n",
		sim.Handled, sim.TimedOut, sim.Shed, sim.MeanResponse.Round(10*time.Millisecond))
	fmt.Fprintf(&b, "provisioning verdict: %d decision point(s) required (added %d)\n",
		sim.FinalDPs, sim.AddedDPs)
	for i, at := range sim.AddTimes {
		fmt.Fprintf(&b, "  +DP %d at t=%s\n", i+2, at.Round(time.Second))
	}
	rows := []Row{{
		"row": "trace-replay", "requests": len(live.Trace),
		"peak_tput_qps":  live.DiPerF.PeakThroughput,
		"replay_handled": sim.Handled, "replay_timed_out": sim.TimedOut,
		"replay_shed": sim.Shed, "final_dps": sim.FinalDPs, "added_dps": sim.AddedDPs,
	}}
	return Report{Text: b.String(), Rows: rows}, nil
}

func runCouplingExtension(scale Scale) (Report, error) {
	var b strings.Builder
	var rows []Row
	b.WriteString("== Extension: two-layer vs one-layer coupling (1 DP, GT3) ==\n")
	fmt.Fprintf(&b, "%-10s %12s %14s %12s\n", "coupling", "peak q/s", "mean resp(s)", "handled%")
	for _, single := range []bool{false, true} {
		name := "two-layer"
		if single {
			name = "one-layer"
		}
		res, err := RunScenario(ScenarioConfig{
			Name:        "ext-coupling-" + name,
			Scale:       scale,
			Profile:     wire.GT3(),
			DPs:         1,
			SingleCall:  single,
			ExecuteJobs: true,
		})
		if err != nil {
			return Report{}, err
		}
		fmt.Fprintf(&b, "%-10s %12.2f %14.2f %11.1f%%\n",
			name, res.DiPerF.PeakThroughput, res.DiPerF.ResponseSummary.Mean,
			pctOf(res.DiPerF.Handled, res.DiPerF.Ops))
		rows = append(rows, Row{
			"row": "extension", "extension": "coupling", "variant": name,
			"peak_tput_qps":   res.DiPerF.PeakThroughput,
			"mean_response_s": res.DiPerF.ResponseSummary.Mean,
			"handled_pct":     pctOf(res.DiPerF.Handled, res.DiPerF.Ops),
		})
	}
	b.WriteString("\nOne-layer scheduling ships no site state over the WAN and saves a\nround trip, so a single decision point carries several times the load.\n")
	return Report{Text: b.String(), Rows: rows}, nil
}

func runGT4CExtension(scale Scale) (Report, error) {
	var b strings.Builder
	var rows []Row
	b.WriteString("== Extension: service stack comparison (1 DP) ==\n")
	fmt.Fprintf(&b, "%-6s %12s %14s %12s\n", "stack", "peak q/s", "mean resp(s)", "handled%")
	for _, profile := range []wire.StackProfile{wire.GT3(), wire.GT4(), wire.GT4C()} {
		res, err := RunScenario(ScenarioConfig{
			Name:        "ext-stack-" + profile.Name,
			Scale:       scale,
			Profile:     profile,
			DPs:         1,
			ExecuteJobs: true,
		})
		if err != nil {
			return Report{}, err
		}
		fmt.Fprintf(&b, "%-6s %12.2f %14.2f %11.1f%%\n",
			profile.Name, res.DiPerF.PeakThroughput, res.DiPerF.ResponseSummary.Mean,
			pctOf(res.DiPerF.Handled, res.DiPerF.Ops))
		rows = append(rows, Row{
			"row": "extension", "extension": "gt4c", "variant": profile.Name,
			"peak_tput_qps":   res.DiPerF.PeakThroughput,
			"mean_response_s": res.DiPerF.ResponseSummary.Mean,
			"handled_pct":     pctOf(res.DiPerF.Handled, res.DiPerF.Ops),
		})
	}
	b.WriteString("\nThe C-based core removes the authentication/SOAP bottleneck the\npaper identifies, letting one decision point do the work of several.\n")
	return Report{Text: b.String(), Rows: rows}, nil
}

func runLANExtension(scale Scale) (Report, error) {
	// LAN vs WAN: rerun the 3-DP GT3 scenario with the LAN profile by
	// swapping the network inside a custom mini-run. RunScenario pins
	// PlanetLab, so this extension uses the simulator where the WAN
	// latency is an explicit parameter.
	var b strings.Builder
	var rows []Row
	b.WriteString("== Extension: WAN (PlanetLab) vs LAN deployment (GRUB-SIM, 10 DPs, unsaturated) ==\n")
	fmt.Fprintf(&b, "%-6s %14s %12s\n", "net", "mean resp(s)", "tput(q/s)")
	type regime struct {
		name string
		wan  time.Duration
	}
	for _, r := range []regime{{"wan", 60 * time.Millisecond}, {"lan", netsim.LAN().MedianLatency}} {
		p := grubsim.GT3Params(10)
		p.WANLatency = r.wan
		res, err := grubsim.Run(p)
		if err != nil {
			return Report{}, err
		}
		fmt.Fprintf(&b, "%-6s %14.2f %12.2f\n", r.name, res.MeanResponse.Seconds(), res.Throughput)
		rows = append(rows, Row{
			"row": "extension", "extension": "lan", "variant": r.name,
			"mean_response_s": res.MeanResponse.Seconds(),
			"tput_qps":        res.Throughput,
		})
	}
	b.WriteString("\nIn the unsaturated regime the WAN's round trips are a visible slice\nof every response; on a LAN they vanish — the conclusion's \"performance\nwill be significantly better in a LAN environment\".\n")
	return Report{Text: b.String(), Rows: rows}, nil
}

func runDynamicLiveExtension(scale Scale) (Report, error) {
	clock := vtime.NewScaled(Epoch, scale.Speedup)
	network := netsim.New(1, netsim.PlanetLab())

	g, err := grid.Generate(grid.TopologyConfig{
		Seed: 1, Sites: scale.Sites, TotalCPUs: scale.TotalCPUs, SizeSigma: 1, MaxClusterCPUs: 512,
	}, clock)
	if err != nil {
		return Report{}, err
	}
	defer g.Shutdown()
	profile := wire.GT3()
	profile.QueueLimit = 512
	if scale.Sites < fullScaleSites {
		profile.PerKB = time.Duration(float64(profile.PerKB) * float64(fullScaleSites) / float64(scale.Sites))
	}

	reg := tsdb.New(0)
	f, err := NewFleet(FleetSpec{
		Clock: clock, Network: network, Metrics: reg, Sites: g.Snapshot,
		Points: 1, Clients: scale.Clients,
		Point: func(i int, c *digruber.Config) {
			c.Name = fmt.Sprintf("dyn-dp-%d", i)
			c.Addr = fmt.Sprintf("dyn/dp-%d", i)
			c.Profile = profile
			c.Saturation = digruber.SaturationConfig{Window: time.Minute}
		},
		Client: func(i int, c *digruber.ClientConfig) {
			c.Name = fmt.Sprintf("dyn-client-%03d", i)
			c.RNG = netsim.Stream(int64(i), "dyn.client")
		},
	})
	if err != nil {
		return Report{}, err
	}
	defer f.Close()
	clients := f.Clients()
	// The §5 loop: every member judges its own saturation, the Controller
	// polls the verdicts each minute and deploys on the first one it
	// hears; the sampler feeds its queue and shed windows.
	ctl, err := digruber.NewController(digruber.ControllerConfig{
		Clock: clock, Factory: f.Deploy, Metrics: reg, Interval: time.Minute, MaxDPs: 8,
		ScaleUpAfter: 1, UpCooldown: time.Minute,
	}, f.Points())
	if err != nil {
		return Report{}, err
	}
	ctl.ManageClients(clients)
	sampler := tsdb.NewSampler(reg, clock, time.Minute)
	sampler.Start()
	defer sampler.Stop()
	ctl.Start()

	// Drive load: every client schedules a job every 5 virtual seconds
	// for the run duration, all bound to dp-0 initially.
	duration := scale.Duration / 2
	done := clock.After(duration)
	stop := make(chan struct{})
	for i := range clients {
		go func(i int) {
			seq := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				f.Submit(i, fmt.Sprintf("dyn-%03d-%05d", i, seq), "atlas", duration/4)
				seq++
				clock.Sleep(5 * time.Second)
			}
		}(i)
	}
	<-done
	close(stop)
	ctl.Stop() // a deployment in flight finishes rebalancing first

	var b strings.Builder
	b.WriteString("== Extension: live dynamic provisioning (GT3, from 1 DP) ==\n")
	fmt.Fprintf(&b, "fleet grew 1 -> %d decision points during the run\n", len(ctl.Fleet()))
	for i, at := range ctl.Deployments() {
		fmt.Fprintf(&b, "  deployed dyn-dp-%d at t+%s\n", i+1, at.Sub(Epoch).Round(time.Second))
	}
	bindings := map[string]int{}
	for _, c := range clients {
		bindings[c.DPName()]++
	}
	fmt.Fprintf(&b, "client bindings after rebalancing: %v\n", bindings)
	events := 0
	for _, dp := range f.Points() {
		events += dp.Detector().Events()
	}
	fmt.Fprintf(&b, "saturation events observed: %d\n", events)
	rows := []Row{{
		"row": "extension", "extension": "dynamic-live",
		"final_dps":         len(ctl.Fleet()),
		"deployments":       len(ctl.Deployments()),
		"saturation_events": events,
	}}
	return Report{Text: b.String(), Rows: rows}, nil
}

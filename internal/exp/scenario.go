package exp

import (
	"fmt"
	"sync"
	"time"

	"digruber/internal/digruber"
	"digruber/internal/diperf"
	"digruber/internal/gram"
	"digruber/internal/grid"
	"digruber/internal/gruber"
	"digruber/internal/grubsim"
	"digruber/internal/netsim"
	"digruber/internal/trace"
	"digruber/internal/tsdb"
	"digruber/internal/vtime"
	"digruber/internal/wire"
	"digruber/internal/workload"
)

// ScenarioConfig describes one live DI-GRUBER emulation (Figures 5-7 and
// 9-11, Tables 1-2, and the exchange-interval sweeps).
type ScenarioConfig struct {
	Name  string
	Scale Scale
	// Profile is the emulated toolkit stack (GT3/GT4).
	Profile wire.StackProfile
	// DPs is the decision point count.
	DPs int
	// Clients overrides Scale.Clients when non-zero.
	Clients int
	// ExchangeInterval is the peer sync period (default 3 minutes).
	ExchangeInterval time.Duration
	// Strategy is the dissemination strategy (default usage-only).
	Strategy digruber.DisseminationStrategy
	// Timeout is the client's scheduling timeout (default 30 s).
	Timeout time.Duration
	// Interarrival is each client's pause between jobs (default 5 s).
	Interarrival time.Duration
	// MeanRuntime overrides the workload's mean job runtime (default
	// Scale.Duration, so accepted work accumulates across the run and
	// the grid approaches saturation under multi-DP load — which is what
	// makes QTime and the handled/not-handled quality gap visible, and
	// mirrors the paper's observation that the lightly-loaded 1-DP runs
	// show deceivingly low queue times).
	MeanRuntime time.Duration
	// JobCPUs overrides the per-job CPU demand (default 2).
	JobCPUs int
	// ExecuteJobs runs scheduled jobs on the emulated grid so QTime,
	// Util and completion-dependent metrics are real.
	ExecuteJobs bool
	// Seed drives all randomness.
	Seed int64
	// MeshTopology false keeps the paper's full mesh; true switches to a
	// star (ablation): every DP exchanges only with dp-0.
	StarTopology bool
	// SingleCall switches clients to the one-round-trip coupling the
	// paper's conclusion proposes (see the coupling extension).
	SingleCall bool
	// SelectorName picks the client-side site selector policy:
	// "usla-aware" (default), "random", "round-robin", "least-used" or
	// "least-recently-used" (the paper's example task assignment
	// policies; swept by the selector ablation).
	SelectorName string
	// Faults optionally schedules broker crashes mid-run (the chaos
	// extension). The schedule is drawn from Seed, so the same seed
	// replays the same victims and windows.
	Faults *FaultConfig
	// TraceSink, when non-nil, turns on distributed tracing: every
	// client, decision point and mesh round records spans into it. Span
	// IDs are drawn from per-actor seeded streams and timestamps from
	// the experiment clock, so the same seed yields the same trace.
	TraceSink *trace.Collector
	// MetricsSink, when non-nil, turns on the metrics plane: every
	// decision point registers its instruments under dp/<name>/, a
	// per-DP divergence gauge (dp/<name>/engine/divergence_l1) measures
	// the L1 distance between the broker's dynamic free-CPU view and
	// grid ground truth, and a sampler records everything into the
	// registry every Scale.Window of the experiment clock.
	MetricsSink *tsdb.Registry
	// Overload, when non-nil, gives clients a retry policy and (when
	// Overload.Plane is set) turns on the end-to-end overload-control
	// plane. Nil keeps the PR-4 behavior: no retries, no breakers, no
	// deadline propagation.
	Overload *OverloadConfig
}

// OverloadConfig parameterizes a run driven at or past its saturation
// knee. With Plane false the clients merely retry — the configuration
// whose amplification the control plane exists to bound. With Plane true
// the full plane engages: deadlines propagate in the request envelope
// (stale work is dropped at dequeue), retries spend a shared fleet-wide
// budget, every client runs per-broker circuit breakers with load-aware
// failover, and every decision point reserves a mesh lane so its view
// keeps converging while clients drown it.
type OverloadConfig struct {
	Plane bool
}

// The overload runs' retry policy and control plane.
const (
	// overloadAttempts caps a call's attempts, the first try included.
	overloadAttempts = 4
	// overloadBaseBackoff seeds the exponential retry backoff; each
	// client jitters it from its own seeded stream.
	overloadBaseBackoff = 250 * time.Millisecond
	// overloadBreakerThreshold is how many consecutive failures open a
	// client's breaker on a broker; it cools down for twice the client
	// timeout.
	overloadBreakerThreshold = 5
	// overloadMeshLane is each decision point's reserved worker count
	// for Exchange/Status/Snapshot.
	overloadMeshLane = 1
)

// FaultConfig schedules a seeded crash-and-heal wave against the
// decision-point fleet. Each victim's node is severed on the fault plane
// (in-flight traffic blackholes) and its broker process crashes (loses
// dynamic state); at the heal point the broker restarts and resyncs via
// the snapshot RPC. Clients get a failover chain over the remaining
// brokers, so the run measures DI-GRUBER's reliability claim end to end.
type FaultConfig struct {
	// CrashDPs is how many decision points crash (capped at DPs-1 so a
	// snapshot donor always survives).
	CrashDPs int
	// CrashAt is when (offset from run start) the crash wave lands.
	CrashAt time.Duration
	// HealAt is when crashed brokers restart.
	HealAt time.Duration
}

func (c *ScenarioConfig) setDefaults() error {
	if c.DPs <= 0 {
		return fmt.Errorf("exp: scenario needs at least one decision point")
	}
	if c.Clients == 0 {
		c.Clients = c.Scale.Clients
	}
	if c.ExchangeInterval <= 0 {
		c.ExchangeInterval = 3 * time.Minute
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.Interarrival <= 0 {
		c.Interarrival = 5 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = c.Scale.Seed
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Faults != nil && c.Faults.CrashDPs >= c.DPs {
		c.Faults.CrashDPs = c.DPs - 1
	}
	if c.Profile.Name == "" {
		c.Profile = wire.GT3()
	}
	if c.Profile.QueueLimit == 0 {
		// Deep accept queues so overload manifests as the paper's
		// climbing response times and client timeouts, not fast-fail.
		c.Profile.QueueLimit = 512
	}
	// Shrunken scales carry proportionally less site state per query, so
	// without correction the emulated container would look faster than
	// the calibrated GT3/GT4 stacks. Scale the per-KB cost so one query
	// costs what it would against the paper's 300-site environment.
	if c.Scale.Sites > 0 && c.Scale.Sites < fullScaleSites {
		c.Profile.PerKB = time.Duration(float64(c.Profile.PerKB) * float64(fullScaleSites) / float64(c.Scale.Sites))
	}
	return nil
}

// fullScaleSites is the paper environment's site count, the reference
// for service-demand calibration.
const fullScaleSites = 300

// ScenarioResult carries everything the paper reports for one run.
type ScenarioResult struct {
	Config ScenarioConfig
	// DiPerF is the figure: load / response / throughput curves and the
	// summary strip.
	DiPerF diperf.Result
	// Table is the Table 1/2-style handled vs not-handled breakdown.
	Table Table
	// HandledAccuracy is mean SA over broker-handled jobs.
	HandledAccuracy float64
	// OverallAccuracy is mean SA over all jobs.
	OverallAccuracy float64
	// Util is ground-truth grid utilization over the run.
	Util float64
	// CompletedJobs counts jobs that finished on the grid.
	CompletedJobs int
	// ExchangeRounds sums decision points' completed sync rounds.
	ExchangeRounds int
	// Trace is the recorded arrival log (client, offset) of the run —
	// the input GRUB-SIM replays, as the paper did with its PlanetLab
	// logs.
	Trace grubsim.Trace
	// ClientWire is the submission fleet's aggregate wire-call counters
	// (attempts, retries, throttles, failure classes). Zero unless
	// metrics or overload control were configured.
	ClientWire wire.ClientStats
	// DPStatus holds each decision point's final self-report in index
	// order — the per-broker shed/conn-lost/expired accounting the
	// overload analysis reads.
	DPStatus []digruber.StatusReply
}

// RunScenario executes one live emulation and blocks until it finishes
// (Scale.Duration of virtual time, Duration/Speedup of real time).
func RunScenario(cfg ScenarioConfig) (ScenarioResult, error) {
	if err := cfg.setDefaults(); err != nil {
		return ScenarioResult{}, err
	}
	clock := vtime.NewScaled(Epoch, cfg.Scale.Speedup)
	network := netsim.New(cfg.Seed, netsim.PlanetLab())

	// Per-actor tracers share the run's collector; each actor draws span
	// IDs from its own seeded stream (nil sink disables tracing).
	tracerFor := func(actor string) *trace.Tracer {
		return trace.New(trace.Config{
			Actor: actor, Seed: cfg.Seed, Clock: clock, Collector: cfg.TraceSink,
		})
	}
	// With both planes on, the collector's overflow accounting joins the
	// metrics export: trace/dropped climbing warns that exemplar trace
	// IDs may no longer resolve in the recorded spans.
	if cfg.TraceSink != nil && cfg.MetricsSink != nil {
		cfg.TraceSink.RegisterMetrics(cfg.MetricsSink)
	}

	// --- grid substrate ---
	g, err := grid.Generate(grid.TopologyConfig{
		Seed:           cfg.Seed,
		Sites:          cfg.Scale.Sites,
		TotalCPUs:      cfg.Scale.TotalCPUs,
		SizeSigma:      1.0,
		MaxClusterCPUs: 512,
	}, clock)
	if err != nil {
		return ScenarioResult{}, err
	}
	// Nothing may outlive the scenario: queued and running jobs resolve
	// at teardown so watcher goroutines exit and later experiments see
	// an idle machine.
	defer g.Shutdown()

	// --- workload ---
	wl, err := newScenarioWorkload(cfg)
	if err != nil {
		return ScenarioResult{}, err
	}

	// --- what the clients share ---
	// One shared wire-counter set aggregates the whole submission fleet
	// (nil when metrics are off, which keeps the per-call cost at one
	// nil check).
	var wireMetrics *wire.ClientMetrics
	if cfg.MetricsSink != nil || cfg.Overload != nil {
		wireMetrics = wire.NewClientMetrics()
	}
	// Per-VO schedule-latency histograms with trace-ID exemplars — the
	// SLO plane's input. Pre-registered for every VO of the workload so
	// the export's series set never depends on which VO submitted first.
	var voLatency map[string]*tsdb.Histogram
	if cfg.MetricsSink != nil {
		voLatency = make(map[string]*tsdb.Histogram, workload.VOs)
		for v := 0; v < workload.VOs; v++ {
			name := workload.VOName(v)
			voLatency[name] = cfg.MetricsSink.Histogram("vo/"+name+"/latency_s", sloLatencyBuckets)
		}
	}
	// Shared overload-control machinery. The retry budget is one bucket
	// for the whole fleet — that is the point: it caps aggregate retry
	// volume, not each client's. Breaker openings land in a fleet-wide
	// counter (nil-safe when metrics are off).
	var retryBudget *wire.RetryBudget
	var breakerCfg wire.BreakerConfig
	if o := cfg.Overload; o != nil && o.Plane {
		// A quarter of the fleet's offered first-attempt rate, with two
		// seconds of burst — enough for transient blips, nowhere near
		// enough to double a saturated fleet's load.
		rate := float64(cfg.Clients) / cfg.Interarrival.Seconds() / 4
		retryBudget = wire.NewRetryBudget(clock, rate, 2*rate)
		brkOpen := cfg.MetricsSink.Counter("clients/breaker/open")
		breakerCfg = wire.BreakerConfig{
			Clock:     clock,
			Threshold: overloadBreakerThreshold,
			Cooldown:  2 * cfg.Timeout,
			OnTransition: func(from, to wire.BreakerState) {
				if to == wire.BreakerOpen {
					brkOpen.Inc()
				}
			},
		}
	}
	// --- the fleet: decision points (full mesh or star) and clients,
	// statically bound round-robin over them ---
	selectors := make([]gruber.Selector, cfg.Clients)
	for t := range selectors {
		if selectors[t], err = selectorByName(cfg.SelectorName, cfg.Seed, t); err != nil {
			return ScenarioResult{}, err
		}
	}
	meshLane := 0
	if o := cfg.Overload; o != nil && o.Plane {
		meshLane = overloadMeshLane
	}
	refs := make([]digruber.DPRef, cfg.DPs)
	fleet, err := NewFleet(FleetSpec{
		Clock: clock, Network: network, Metrics: cfg.MetricsSink, Sites: g.Snapshot,
		Points: cfg.DPs, Star: cfg.StarTopology, Clients: cfg.Clients,
		Point: func(i int, c *digruber.Config) {
			c.Name = fmt.Sprintf("dp-%d", i)
			c.Node = fmt.Sprintf("dp-node-%d", i)
			c.Addr = fmt.Sprintf("%s/dp-%d", cfg.Name, i)
			refs[i] = digruber.DPRef{Name: c.Name, Node: c.Node, Addr: c.Addr}
			c.Profile = cfg.Profile
			c.Policies = wl.policies
			c.ExchangeInterval = cfg.ExchangeInterval
			c.Strategy = cfg.Strategy
			c.PeerTimeout = cfg.Timeout
			c.Tracer = tracerFor(c.Name)
			c.MeshLane = meshLane
		},
		Client: func(t int, c *digruber.ClientConfig) {
			c.Name = wl.gen.HostName(t)
			c.Node = fmt.Sprintf("client-node-%03d", t)
			c.Selector = selectors[t]
			c.SingleCall = cfg.SingleCall
			c.Timeout = cfg.Timeout
			c.RNG = netsim.Stream(cfg.Seed, fmt.Sprintf("exp.fallback/%d", t))
			c.Tracer = tracerFor(c.Name)
			c.WireMetrics = wireMetrics
			// Under a fault schedule — or with the overload plane's breakers
			// on — every client also carries a failover chain: the remaining
			// brokers in ring order from its primary. A client whose broker
			// dies (or drowns) rebinds after a few failures instead of paying
			// a timeout plus random fallback for every remaining job.
			if cfg.Faults != nil || (cfg.Overload != nil && cfg.Overload.Plane) {
				for k := 1; k < cfg.DPs; k++ {
					c.Failover = append(c.Failover, refs[(t+k)%cfg.DPs])
				}
			}
			if voLatency != nil {
				// Unknown owners fall through to a nil histogram (a no-op
				// observation) rather than minting series mid-run.
				c.Latency = func(j *grid.Job) *tsdb.Histogram { return voLatency[j.Owner.VO] }
			}
			if o := cfg.Overload; o != nil {
				// Retries with or without the plane; only the plane bounds
				// them with the shared budget. Jitter comes from a per-client
				// stream (netsim streams are not goroutine-safe).
				c.Retry = wire.RetryPolicy{
					Attempts:    overloadAttempts,
					BaseBackoff: overloadBaseBackoff,
					JitterFrac:  0.5,
					Jitter:      netsim.Stream(cfg.Seed, fmt.Sprintf("exp.retryjitter/%d", t)),
					Budget:      retryBudget,
				}
				if o.Plane {
					c.PropagateDeadline = true
					c.Breaker = breakerCfg
					c.LoadAwareFailover = true
				}
			}
		},
	})
	if err != nil {
		return ScenarioResult{}, err
	}
	defer fleet.Close()
	dps, clients := fleet.Points(), fleet.Clients()
	for _, dp := range dps {
		// The divergence gauge needs ground truth, which only the
		// harness has — so it lives here, not in the decision point.
		engine := dp.Engine()
		cfg.MetricsSink.GaugeFunc("dp/"+dp.Name()+"/engine/divergence_l1", func(now time.Time) float64 {
			return engine.ViewDivergence(g.Snapshot())
		})
	}

	// --- seeded fault plane: crash-and-heal wave against the fleet ---
	if f := cfg.Faults; f != nil && f.CrashDPs > 0 {
		faults := netsim.NewFaultPlane()
		network.SetFaults(faults)
		nodes := make([]string, cfg.DPs)
		byNode := make(map[string]*digruber.DecisionPoint, cfg.DPs)
		for i, ref := range refs {
			nodes[i] = ref.Node
			byNode[ref.Node] = dps[i]
		}
		// Victims and sub-window jitter are drawn from the run seed: the
		// same seed replays the same outage, bit for bit.
		spread := cfg.Scale.Duration/100 + time.Second
		schedule := netsim.RandomCrashes(cfg.Seed, cfg.Name, nodes, f.CrashDPs,
			f.CrashAt, f.CrashAt+spread, f.HealAt-f.CrashAt, f.HealAt-f.CrashAt+spread)
		faults.Apply(Epoch, schedule)

		var faultMu sync.Mutex
		scenarioDone := false
		var timers []vtime.Timer
		for _, cr := range schedule {
			dp := byNode[cr.Node]
			timers = append(timers, clock.AfterFunc(cr.From, func() { dp.Crash() }))
			timers = append(timers, clock.AfterFunc(cr.Until, func() {
				faultMu.Lock()
				done := scenarioDone
				faultMu.Unlock()
				if done {
					return
				}
				_ = dp.Restart()
				// If teardown raced the restart, undo it.
				faultMu.Lock()
				if scenarioDone {
					dp.Stop()
				}
				faultMu.Unlock()
			}))
		}
		// Registered after the fleet-stop defer, so it runs first: no
		// fault timer may fire (or leave a broker running) after return.
		defer func() {
			faultMu.Lock()
			scenarioDone = true
			faultMu.Unlock()
			for _, tm := range timers {
				tm.Stop()
			}
		}()
	}

	// --- execution path & metrics ---
	collector := NewCollector()
	submitter := gram.NewSubmitter(g, network, clock, gram.Config{
		SubmitOverhead: 500 * time.Millisecond,
	})
	var execWG sync.WaitGroup
	var arrivalMu sync.Mutex
	var arrivals grubsim.Trace

	op := func(t, seq int) diperf.OpResult {
		arrivalMu.Lock()
		arrivals = append(arrivals, grubsim.Arrival{At: clock.Since(Epoch), Client: t})
		arrivalMu.Unlock()
		job, err := wl.nextJob(t)
		if err != nil {
			return diperf.OpResult{Err: err}
		}
		dec := clients[t].Schedule(job)
		if dec.Err != nil {
			return diperf.OpResult{Handled: dec.Handled, Err: dec.Err, TraceID: dec.TraceID}
		}
		// Ground-truth scheduling accuracy at dispatch: how good was the
		// chosen site relative to the best available one?
		accuracy := schedulingAccuracy(g, dec.Site)
		collector.RecordScheduled(string(job.ID), dec.Response, dec.Handled, accuracy)

		if cfg.ExecuteJobs {
			execWG.Add(1)
			go func(site string) {
				defer execWG.Done()
				ticket, err := submitter.Submit(job.SubmitHost, site, job)
				if err != nil {
					collector.RecordRefused(string(job.ID))
					return
				}
				out := <-ticket.Done()
				cpu := time.Duration(0)
				if !out.Failed {
					cpu = out.Job.Runtime * time.Duration(out.Job.CPUs)
				}
				collector.RecordOutcome(string(job.ID), out.QTime(), cpu, out.Failed)
			}(dec.Site)
		}
		return diperf.OpResult{Handled: dec.Handled, TraceID: dec.TraceID}
	}

	// --- metrics sampler, ticking on the experiment clock ---
	sampler := tsdb.NewSampler(cfg.MetricsSink, clock, cfg.Scale.Window)
	sampler.Start()
	defer sampler.Stop()

	// --- drive it with DiPerF ---
	stagger := cfg.Scale.Duration / 10 / time.Duration(max(cfg.Clients-1, 1))
	dpResult, err := diperf.Run(diperf.Config{
		Testers:      cfg.Clients,
		Stagger:      stagger,
		Interarrival: cfg.Interarrival,
		Duration:     cfg.Scale.Duration,
		Window:       cfg.Scale.Window,
		Clock:        clock,
	}, op)
	if err != nil {
		return ScenarioResult{}, err
	}
	// Let in-flight jobs drain, but don't stall the harness on the
	// log-normal runtime tail: stragglers simply lack outcome records,
	// exactly like jobs still running when a paper measurement window
	// closed.
	drainReal := time.Duration(float64(cfg.Scale.Duration) / 2 / cfg.Scale.Speedup)
	waitWithTimeout(&execWG, drainReal)
	// Close the books: one final sample so the run's last partial window
	// is in the series.
	sampler.SampleNow()

	res := ScenarioResult{
		Config: cfg,
		DiPerF: dpResult,
		Table:  collector.BuildTable(g.TotalCPUs(), cfg.Scale.Duration),
	}
	yes := true
	res.HandledAccuracy = collector.AccuracyMean(&yes)
	res.OverallAccuracy = collector.AccuracyMean(nil)
	res.Util = grid.Utilization(g.ConsumedCPU(), g.TotalCPUs(), cfg.Scale.Duration)
	res.CompletedJobs = g.CompletedJobs()
	res.ClientWire = wireMetrics.Stats()
	for _, dp := range dps {
		res.ExchangeRounds += dp.ExchangeRounds()
		res.DPStatus = append(res.DPStatus, dp.Status())
	}
	arrivals.Sort()
	res.Trace = arrivals
	return res, nil
}

// schedulingAccuracy is SA_i: ground-truth free CPUs at the selected
// site over ground-truth free CPUs at the best site, both at dispatch.
func schedulingAccuracy(g *grid.Grid, site string) float64 {
	best := 0
	for _, s := range g.Sites() {
		if f := g.FreeCPUsAt(s.Name()); f > best {
			best = f
		}
	}
	if best == 0 {
		return 1 // nothing free anywhere: no decision could do better
	}
	return float64(g.FreeCPUsAt(site)) / float64(best)
}

// waitWithTimeout waits for wg up to a real-time bound. The bound is
// deliberately wall-clock: it caps how long the harness itself may
// stall on the log-normal runtime tail, independent of any virtual
// clock's speedup, and it affects only when measurement stops — never
// the simulated timeline the results are drawn from.
func waitWithTimeout(wg *sync.WaitGroup, d time.Duration) {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(d): //lint:allow wallclock -- real-time bound on harness wall time, not simulated time
	}
}

// selectorByName instantiates a fresh per-client selector from the name
// the selector reports ("" is the USLA-aware default).
func selectorByName(name string, seed int64, tester int) (gruber.Selector, error) {
	if name == "" {
		return gruber.USLAAware{}, nil
	}
	for _, s := range []gruber.Selector{
		gruber.USLAAware{},
		gruber.NewRandom(netsim.Stream(seed, fmt.Sprintf("exp.selector/%d", tester))),
		gruber.NewRoundRobin(),
		gruber.LeastUsed{},
		gruber.MostFree{},
		gruber.NewLeastRecentlyUsed(),
	} {
		if s.Name() == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("exp: unknown selector %q", name)
}

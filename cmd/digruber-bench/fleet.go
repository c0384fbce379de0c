package main

import (
	"fmt"
	"net"
	"os"
	"time"

	"digruber/internal/digruber"
	"digruber/internal/grid"
	"digruber/internal/netsim"
	"digruber/internal/trace"
	"digruber/internal/tsdb"
	"digruber/internal/usla"
	"digruber/internal/vtime"
	"digruber/internal/wal"
	"digruber/internal/wire"
	"digruber/internal/workload"
)

// spec is one workload: the properties of the fleet that differ
// between workloads. Everything else (real clock, Instant profile, no
// emulated network, paper policies, closed-loop clients) is shared.
type spec struct {
	name string
	why  string
	// toy replaces the paper's 300-site grid with four sites of 100 M
	// CPUs each, so engine and USLA work all but vanish.
	toy bool
	// dps is the number of decision points (full mesh, UsageOnly).
	dps int
	// singleCall selects the one-round-trip coupling; otherwise Query +
	// Report with the full site-load reply.
	singleCall bool
	// tcp runs over loopback sockets instead of in-process pipes.
	tcp bool
	// durable turns on Config.Durability.
	durable bool
}

var specs = []spec{
	{name: "paper300-twocall", dps: 1,
		why: "300 sites, Query+Report: the 300-entry reply puts wire codec work on top of full engine and USLA cost"},
	{name: "paper300-singlecall", dps: 1, singleCall: true,
		why: "300 sites, one call: reply is tiny, so SiteLoads, USLA evaluation and the exclusive engine lock dominate"},
	{name: "toy4-twocall", dps: 1, toy: true, tcp: true,
		why: "4 huge sites over TCP loopback: engine work near zero, per-message fixed cost is almost everything"},
	{name: "mesh3-singlecall", dps: 3, singleCall: true,
		why: "3 decision points in full mesh: MergeRemote beside SiteLoads, one caller per engine, mesh bytes on the wire"},
	{name: "durable300-singlecall", dps: 1, singleCall: true, durable: true,
		why: "paper300-singlecall plus the write-ahead log: write+fsync under the engine mutex does most of the work"},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

const (
	// clients is the closed-loop client count: one per processor of the
	// two-processor sandbox the baseline was taken on, fixed so the load
	// does not change with the host.
	clients = 2
	// hosts is one submission host per VO × group of the paper's policy.
	hosts = 100
	// residentRuntime is the runtime of warm-up and count-phase jobs:
	// long enough that nothing expires during a run.
	residentRuntime = time.Hour
	// timedRuntime is the runtime of timed-phase jobs: dispatches expire
	// continuously, so occupancy self-limits near peak rate × 1 s.
	timedRuntime  = time.Second
	clientTimeout = 10 * time.Second
)

// fleetOpts are the planes a fleet is built with; the zero value is the
// configuration every end-to-end metric is measured on.
type fleetOpts struct {
	// memWAL backs a durable workload's log with wal.MemStore (exact
	// sync counts, no disk) instead of wal.DirStore in a temp directory.
	memWAL bool
	// col wires a Tracer over it into clients and decision points.
	col *trace.Collector
	// reg wires the metrics plane into decision points and clients.
	reg *tsdb.Registry
	// wireMetrics counts RPC body bytes per method on the clients.
	wireMetrics *wire.ClientMetrics
}

// fleet is one in-process deployment: decision points, their clients
// and the job generator that feeds them.
type fleet struct {
	spec     spec
	clock    vtime.Real
	net      *countingNet
	mesh     *linkNet
	sites    []grid.Status
	policies *usla.PolicySet
	dps      []*digruber.DecisionPoint
	clients  []*digruber.Client
	gen      *workload.Generator
	// nextHost[k] is the submission host client k's next job comes from;
	// client k owns the hosts congruent to k modulo the active client
	// count, so concurrent clients never share a generator stream.
	nextHost []int
	memStore *wal.MemStore
	walDir   string
	sampler  *tsdb.Sampler
	latency  *tsdb.Histogram
	// Mesh rounds that sent records (see counters).
	rounds, roundRecords int
	roundTime            time.Duration
}

// newFleet builds and starts a fleet for s. tmpRoot is where a durable
// workload's log directory goes.
func newFleet(s spec, seed int64, o fleetOpts, tmpRoot string) (_ *fleet, err error) {
	f := &fleet{spec: s, clock: vtime.NewReal(), nextHost: make([]int, clients)}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	var inner wire.Transport = wire.NewMem()
	if s.tcp {
		inner = wire.TCP{}
	}
	f.net = newCountingNet(inner)
	f.mesh = f.net.link()

	if s.toy {
		for i := 0; i < 4; i++ {
			f.sites = append(f.sites, grid.Status{
				Name:        fmt.Sprintf("toy-site-%d", i),
				TotalCPUs:   100_000_000,
				FreeCPUs:    100_000_000,
				UsageByPath: map[string]int{},
			})
		}
	} else {
		g, err := grid.Generate(grid.TopologyConfig{
			Seed: seed, Sites: 300, TotalCPUs: 30000, SizeSigma: 1, MaxClusterCPUs: 512,
		}, f.clock)
		if err != nil {
			return nil, err
		}
		f.sites = g.Snapshot()
	}
	siteNames := make([]string, len(f.sites))
	for i, st := range f.sites {
		siteNames[i] = st.Name
	}

	wcfg := workload.Default()
	wcfg.Seed = seed
	wcfg.Hosts = hosts
	wcfg.RuntimeSigma = 0
	f.gen = workload.NewGenerator(wcfg)

	for i := 0; i < s.dps; i++ {
		ps, err := workload.Policies(wcfg)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			f.policies = ps
		}
		name := fmt.Sprintf("dp-%d", i)
		addr := name
		if s.tcp {
			if addr, err = freeLoopbackAddr(); err != nil {
				return nil, err
			}
		}
		cfg := digruber.Config{
			Name: name, Addr: addr,
			Transport: f.mesh, Clock: f.clock, Profile: wire.Instant(),
			Policies: ps,
			// An hour, so the harness and not a ticker drives mesh rounds.
			ExchangeInterval: time.Hour,
			Strategy:         digruber.UsageOnly,
			PeerTimeout:      clientTimeout,
			Tracer:           f.tracer(o.col, seed, name),
			Metrics:          o.reg,
		}
		if s.durable {
			store, err := f.walStore(o.memWAL, tmpRoot)
			if err != nil {
				return nil, err
			}
			// Manual checkpoints only: the harness decides when the log is
			// compacted, so replay sizes are fixed.
			cfg.Durability = &digruber.DurabilityConfig{Store: store, CheckpointEvery: -1}
		}
		dp, err := digruber.New(cfg)
		if err != nil {
			return nil, err
		}
		dp.Engine().UpdateSites(f.sites, f.clock.Now())
		f.dps = append(f.dps, dp)
	}
	for _, dp := range f.dps {
		for _, peer := range f.dps {
			dp.AddPeer(peer.Name(), peer.Name(), peer.Addr())
		}
		if err := dp.Start(); err != nil {
			return nil, err
		}
	}

	if o.reg != nil {
		f.latency = o.reg.Histogram("client/latency_s", []float64{0.0005, 0.001, 0.002, 0.005, 0.01, 0.1, 1})
		f.sampler = tsdb.NewSampler(o.reg, f.clock, time.Second)
		f.sampler.Start()
	}
	for k := 0; k < clients; k++ {
		// With several decision points, client k binds to point k; the
		// last point then receives merges only.
		dp := f.dps[k%len(f.dps)]
		name := fmt.Sprintf("bench-client-%d", k)
		ccfg := digruber.ClientConfig{
			Name:   name,
			DPName: dp.Name(), DPNode: dp.Name(), DPAddr: dp.Addr(),
			Transport: f.net, Clock: f.clock,
			Timeout:       clientTimeout,
			FallbackSites: siteNames,
			RNG:           netsim.Stream(seed, "bench.client/"+name),
			SingleCall:    s.singleCall,
			Tracer:        f.tracer(o.col, seed, name),
			WireMetrics:   o.wireMetrics,
		}
		if f.latency != nil {
			ccfg.Latency = func(*grid.Job) *tsdb.Histogram { return f.latency }
		}
		c, err := digruber.NewClient(ccfg)
		if err != nil {
			return nil, err
		}
		f.clients = append(f.clients, c)
	}
	return f, nil
}

func (f *fleet) tracer(col *trace.Collector, seed int64, actor string) *trace.Tracer {
	if col == nil {
		return nil
	}
	return trace.New(trace.Config{Actor: actor, Seed: seed, Clock: f.clock, Collector: col})
}

func (f *fleet) walStore(mem bool, tmpRoot string) (wal.Store, error) {
	if mem {
		f.memStore = wal.NewMemStore()
		return f.memStore, nil
	}
	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(tmpRoot, "wal-")
	if err != nil {
		return nil, err
	}
	f.walDir = dir
	return wal.NewDirStore(dir)
}

// freeLoopbackAddr probes a free TCP port on the loopback interface:
// digruber.Config wants the address clients will dial, so ":0" cannot
// be passed through.
func freeLoopbackAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("probe loopback port: %w", err)
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return "", err
	}
	return addr, nil
}

// close stops everything the fleet started and removes its log
// directory. Safe on a partly built fleet.
func (f *fleet) close() {
	f.sampler.Stop()
	for _, c := range f.clients {
		c.Close()
	}
	for _, dp := range f.dps {
		dp.Stop()
	}
	if f.walDir != "" {
		os.RemoveAll(f.walDir)
	}
}

// exchangeAll runs one mesh round on every decision point, in index
// order. Rounds that had records to send are timed and counted; the
// caller must not run two at once.
func (f *fleet) exchangeAll() {
	if len(f.dps) < 2 {
		return
	}
	for _, dp := range f.dps {
		start := time.Now()
		if sent := dp.ExchangeNow(); sent > 0 {
			f.rounds++
			f.roundTime += time.Since(start)
			f.roundRecords += sent
		}
	}
}

// nextJob generates client k's next job when `active` clients are
// submitting, with the given runtime.
func (f *fleet) nextJob(k, active int, runtime time.Duration) (*grid.Job, error) {
	h := f.nextHost[k]
	if h%active != k {
		h = k
	}
	f.nextHost[k] = (h + active) % hosts
	j, err := f.gen.NextJob(h)
	if err != nil {
		return nil, err
	}
	j.Runtime = runtime
	return j, nil
}

// decideN has client 0 broker n resident jobs one after another,
// running a mesh round after every `every` decisions (0 = never), and
// returns the placements in order. A decision the broker did not handle
// is returned as an error: the callers' phases must not fail at all.
func (f *fleet) decideN(n, every int) ([]placement, error) {
	out := make([]placement, 0, n)
	for i := 0; i < n; i++ {
		j, err := f.nextJob(0, 1, residentRuntime)
		if err != nil {
			return nil, err
		}
		dec := f.clients[0].Schedule(j)
		if dec.Err != nil || !dec.Handled {
			return nil, fmt.Errorf("decision %d (%s) not brokered: handled=%v err=%v", i, j.ID, dec.Handled, dec.Err)
		}
		out = append(out, placement{job: dec.JobID, site: dec.Site, vo: j.Owner.VO})
		if every > 0 && (i+1)%every == 0 {
			f.exchangeAll()
		}
	}
	return out, nil
}

// dispatched sums the dispatches the fleet's engines recorded as
// locally brokered: the broker's own count of decisions it made.
func (f *fleet) dispatched() int64 {
	var n int64
	for _, dp := range f.dps {
		n += dp.Engine().Stats().LocalDispatches
	}
	return n
}

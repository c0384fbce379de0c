package exp

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"digruber/internal/digruber"
	"digruber/internal/grid"
	"digruber/internal/netsim"
	"digruber/internal/tsdb"
	"digruber/internal/usla"
	"digruber/internal/vtime"
	"digruber/internal/wire"
)

// FleetSpec is the paper's one deployment shape as data: decision
// points seeded with the grid's site list and peered with each other,
// and submission hosts bound to them round-robin. Every experiment that
// stands up brokers describes itself with one of these and lets
// NewFleet do the wiring (DESIGN.md "Fleet harness" tabulates which
// experiment sets which field).
type FleetSpec struct {
	// Clock drives every actor. A *vtime.Manual clock makes the fleet a
	// stepped one: nothing moves virtual time during a call, so points
	// default to the Instant stack and an exchange ticker that never
	// fires, clients to a 5 s timeout, and the run is driven by Tick.
	Clock vtime.Clock
	// Network is the emulated WAN between nodes; nil is a wire without
	// latency or loss.
	Network *netsim.Network
	// Metrics, when non-nil, receives every point's instruments under
	// dp/<name>/ and is what Tick samples.
	Metrics *tsdb.Registry
	// Sites returns the site statuses a point's engine is seeded with at
	// the moment it is built or deployed: a fixed list, or a generated
	// grid's Snapshot.
	Sites func() []grid.Status
	// Points is how many decision points NewFleet builds, peers and
	// starts; Deploy adds further ones at run time.
	Points int
	// Star peers every point with point 0 only (the topology ablation)
	// instead of the paper's full mesh.
	Star bool
	// Clients is how many submission hosts NewFleet builds. Host i is
	// bound to point i mod Points and falls back over every site.
	Clients int
	// Point completes point i's configuration. Transport, Network, Clock
	// and Metrics are already set; the hook must set Name and Addr (and
	// Node when it differs from Name) and adds whatever the experiment
	// varies: stack profile, strategy, durability store, tracer.
	Point func(i int, cfg *digruber.Config)
	// Client completes host i's configuration. Transport, Network, Clock,
	// the decision-point binding and FallbackSites are already set; the
	// hook must set Name and adds the rest: RNG stream, selector, tracer,
	// retry and breaker policy. Nil only when Clients is 0.
	Client func(i int, cfg *digruber.ClientConfig)
}

// idleSites is a fixed grid of n idle sites of cpus CPUs each, named by
// format — what the scripted experiments seed their fleets with.
func idleSites(format string, n, cpus int) []grid.Status {
	sites := make([]grid.Status, n)
	for i := range sites {
		sites[i] = grid.Status{Name: fmt.Sprintf(format, i), TotalCPUs: cpus, FreeCPUs: cpus}
	}
	return sites
}

const (
	// neverTick is a stepped fleet's exchange interval: rounds are driven
	// by Tick, so the interval ticker must not fire on its own.
	neverTick = 1000 * time.Hour
	// tickStep is how far one Tick advances a stepped fleet's clock.
	tickStep = time.Minute
	// manualTimeout is a stepped fleet's client timeout.
	manualTimeout = 5 * time.Second
	// quiesceWait bounds, in real time, how long Quiesce waits for
	// in-flight accounting to settle.
	quiesceWait = 10 * time.Second
)

// Fleet is a running FleetSpec: the shared in-memory transport, every
// decision point built for it (deployed ones included) and its clients.
// Close stops all of it.
type Fleet struct {
	spec   FleetSpec
	manual *vtime.Manual // nil unless spec.Clock is a Manual clock
	mem    *wire.Mem
	// fallback is every seeded site's name, the clients' FallbackSites.
	fallback    []string
	quiesceWait time.Duration

	mu      sync.Mutex
	closed  bool
	points  []*digruber.DecisionPoint
	refs    []digruber.DPRef // refs[k] addresses points[k]
	clients []*digruber.Client
	hosts   []string // hosts[k] is clients[k]'s name
}

// NewFleet builds the spec's decision points, peers them, starts them in
// index order and then builds the clients. On any error everything
// already started is stopped again before it returns.
func NewFleet(spec FleetSpec) (*Fleet, error) { return newFleet(spec, wire.NewMem()) }

// newFleet is NewFleet on a given transport; tests pre-bind addresses
// on it and look at what a closed fleet left listening.
func newFleet(spec FleetSpec, mem *wire.Mem) (*Fleet, error) {
	f := &Fleet{spec: spec, mem: mem, quiesceWait: quiesceWait}
	if err := f.start(); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func (f *Fleet) start() error {
	if f.spec.Clock == nil || f.spec.Sites == nil || f.spec.Point == nil || f.spec.Points < 1 ||
		(f.spec.Clients > 0 && f.spec.Client == nil) {
		return errors.New("exp: fleet needs Clock, Sites, at least one point, and a hook per kind of actor")
	}
	f.manual, _ = f.spec.Clock.(*vtime.Manual)
	for _, st := range f.spec.Sites() {
		f.fallback = append(f.fallback, st.Name)
	}
	for i := 0; i < f.spec.Points; i++ {
		if _, err := f.add(i, false); err != nil {
			return err
		}
	}
	for i, a := range f.points {
		for _, b := range f.points[i+1:] {
			if i == 0 || !f.spec.Star {
				digruber.Connect(a, b)
			}
		}
	}
	for _, dp := range f.points {
		if err := dp.Start(); err != nil {
			return err
		}
	}
	for i := 0; i < f.spec.Clients; i++ {
		ref := f.refs[i%f.spec.Points]
		cfg := digruber.ClientConfig{
			DPName: ref.Name, DPNode: ref.Node, DPAddr: ref.Addr,
			Transport: f.mem, Network: f.spec.Network, Clock: f.spec.Clock,
			FallbackSites: f.fallback,
		}
		if f.manual != nil {
			cfg.Timeout = manualTimeout
		}
		f.spec.Client(i, &cfg)
		c, err := digruber.NewClient(cfg)
		if err != nil {
			return err
		}
		f.clients = append(f.clients, c)
		f.hosts = append(f.hosts, cfg.Name)
	}
	return nil
}

// add builds point i, seeds its engine and, for a deployment, starts it.
func (f *Fleet) add(i int, start bool) (*digruber.DecisionPoint, error) {
	cfg := digruber.Config{
		Transport: f.mem, Network: f.spec.Network, Clock: f.spec.Clock, Metrics: f.spec.Metrics,
	}
	if f.manual != nil {
		cfg.Profile, cfg.ExchangeInterval = wire.Instant(), neverTick
	}
	f.spec.Point(i, &cfg)
	dp, err := digruber.New(cfg)
	if err != nil {
		return nil, err
	}
	dp.Engine().UpdateSites(f.spec.Sites(), f.spec.Clock.Now())
	ref := digruber.DPRef{Name: cfg.Name, Node: cfg.Node, Addr: cfg.Addr}
	if ref.Node == "" {
		ref.Node = ref.Name
	}

	// Started under the lock, so a Close racing a deployment either sees
	// the point and stops it, or refuses it here.
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, errors.New("exp: fleet is closed")
	}
	if start {
		if err := dp.Start(); err != nil {
			return nil, err
		}
	}
	f.points = append(f.points, dp)
	f.refs = append(f.refs, ref)
	return dp, nil
}

// Deploy builds, seeds and starts decision point idx, unpeered — it is
// the digruber.DPFactory a Controller grows the fleet with (the
// Controller does the peering), and Close stops what it deployed.
func (f *Fleet) Deploy(idx int) (*digruber.DecisionPoint, error) {
	return f.add(idx, true)
}

// Points returns every decision point built so far, in build order,
// whether or not it is still serving.
func (f *Fleet) Points() []*digruber.DecisionPoint {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*digruber.DecisionPoint(nil), f.points...)
}

// Clients returns the submission hosts in index order.
func (f *Fleet) Clients() []*digruber.Client { return f.clients }

// Submit schedules a one-CPU job for owner (a USLA path) through
// submission host i and returns the decision.
func (f *Fleet) Submit(i int, id, owner string, runtime time.Duration) digruber.Decision {
	return f.clients[i].Schedule(&grid.Job{
		ID: grid.JobID(id), Owner: usla.MustParsePath(owner), CPUs: 1, Runtime: runtime,
		SubmitHost: f.hosts[i],
	})
}

// Close stops the clients and then every decision point. It is
// idempotent, and a Deploy that loses the race with it fails.
func (f *Fleet) Close() {
	f.mu.Lock()
	f.closed = true
	points := f.points
	f.mu.Unlock()
	for _, c := range f.clients {
		c.Close()
	}
	for _, dp := range points {
		dp.Stop()
	}
}

// Quiesce waits until no point has a request in flight, so that the
// sample (or drain settle check) that follows reads a settled fleet. The
// wait is in real time, because what it waits for is real: a request
// whose caller stopped waiting (timed out or failed over) can still hold
// a server's worker, and on a Manual clock no amount of virtual time
// makes that goroutine run. Only a stepped fleet can be
// quiesced — on a Scaled clock the load never pauses.
func (f *Fleet) Quiesce() error {
	if f.manual == nil {
		return errors.New("exp: only a Manual-clock fleet can be quiesced")
	}
	//lint:allow wallclock -- real-time watchdog for goroutine scheduling, not simulated time
	deadline := time.Now().Add(f.quiesceWait)
	for _, dp := range f.Points() {
		for n := dp.Status().InFlight; n != 0; n = dp.Status().InFlight {
			//lint:allow wallclock -- real-time watchdog, not simulated time
			if time.Now().After(deadline) {
				return fmt.Errorf("exp: fleet did not quiesce: %s still has %d in flight", dp.Name(), n)
			}
			//lint:allow wallclock -- yields to the server goroutines; no simulated time passes
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// Tick ends one step of a stepped run: with exchange set, every given
// point runs one dissemination round, in order; the fleet quiesces; the
// clock advances one minute; the metrics registry is sampled. Quiescing
// after the rounds matters — their server-side accounting settles
// asynchronously too.
func (f *Fleet) Tick(points []*digruber.DecisionPoint, exchange bool) error {
	if f.manual == nil {
		return errors.New("exp: only a Manual-clock fleet can be stepped")
	}
	if exchange {
		for _, dp := range points {
			dp.ExchangeNow()
		}
	}
	if err := f.Quiesce(); err != nil {
		return err
	}
	f.manual.Advance(tickStep)
	f.spec.Metrics.Sample(f.manual.Now())
	return nil
}

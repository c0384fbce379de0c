package digruber_test

// The promise checker. The fleet's promises (DESIGN.md "Promises") are
// stated once, as the invariants facts.check enforces, and checked after
// every schedule: steps driven over an exp.Fleet on a Manual clock. The
// scenario tests are named schedules with expectations of their own;
// TestPromises draws schedules from seeds and shrinks a failing one.

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"digruber/internal/digruber"
	"digruber/internal/exp"
	"digruber/internal/grid"
	"digruber/internal/gruber"
	"digruber/internal/netsim"
	"digruber/internal/usla"
	"digruber/internal/vtime"
	"digruber/internal/wal"
	"digruber/internal/wire"
)

// The step kinds. A step that does not apply (restarting a serving
// point, damaging a store in use) is skipped, so a shrunk schedule runs.
const (
	opSubmit    = "submit"    // every client submits one job
	opExchange  = "exchange"  // every serving point runs one round, in index order
	opAdvance   = "advance"   // the clock moves D
	opCrash     = "crash"     // point P crashes; with D > 0 it restarts once D has passed
	opRestart   = "restart"   // point P starts and resyncs from its peers
	opPartition = "partition" // points Side and their clients are cut off for the next N (1 or 2) steps
	opDrain     = "drain"     // P's clients move to the next serving point, then P drains within D
	opRemove    = "remove"    // point P removes retired point Q
	opTruncate  = "truncate"  // down durable point P's log loses its last N bytes
	opFlipBit   = "flipbit"   // a bit flips in down durable point P's log, N per mille in
	opFailSyncs = "failsyncs" // durable point P's store refuses its next N syncs
	opReplan    = "replan"    // a second on, client P re-plans its latest handled job away from that job's site
)

type step struct {
	Op   string
	P, Q int
	N    int64
	D    time.Duration
	Side []int
}

// schedule is a fleet shape and its steps. Client i is bound to point i
// and fails over along the others in ring order.
type schedule struct {
	Points                    int
	Gossip, Durable, Overload bool
	Steps                     []step
}

var (
	epoch = time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)
	// Four 100-CPU sites and a 30 % upper limit for the VO at the first
	// two: (e) has a limit to hold, and the selector always has room.
	sites = []grid.Status{{Name: "site-000", TotalCPUs: 100, FreeCPUs: 100}, {Name: "site-001", TotalCPUs: 100, FreeCPUs: 100},
		{Name: "site-002", TotalCPUs: 100, FreeCPUs: 100}, {Name: "site-003", TotalCPUs: 100, FreeCPUs: 100}}
	policy, _ = usla.ParseTextString("site-000 atlas cpu 30+\nsite-001 atlas cpu 30+\n") // well-formed
)

// observation is what one run of a schedule shows; two runs of one
// schedule show the same (invariant g).
type observation struct {
	Decisions []string // client, job, site, handled, deciding point
	Waves     []int    // handled decisions per submit wave
	Drains    []string // each drain's error, <nil> when it retired the point
	Views     []string // each serving point's jobs (hashed), free CPUs and vector at the end
	Timed     bool     // a step ran beside a walked clock: replay compares the fields above only
	Restarts  []string // point, donor, records imported, error
	Recovered map[string]digruber.RecoveryStats
	Images    []string // each durable store's files, hashed
	Throttled int64    // retries the shared budget refused
}

// pointFacts is one serving point as the invariants read it.
type pointFacts struct {
	Name    string
	Records []gruber.Dispatch
	Free    []int
	Vector  map[string]uint64
	Peers   []string
}

// facts is what the invariants read at the end of a run. Excused holds
// the records the driver saw might be lost — held by no other serving
// point when a non-durable point crashed or a store was damaged, or taken
// in while a store refused syncs (ROADMAP item 2) — and nothing else.
type facts struct {
	Gossip  bool
	Points  []pointFacts // the serving points after heal and quiescence
	Handled []string     // jobs whose decision was handled
	Excused map[string]gruber.Dispatch
	Removed map[string][]string // point → names it removed
	Limits  map[string]float64  // a handled decision's site: its headroom at the deciding point after
	Probe   [2]int              // the probe wave after heal: handled, submitted
	Sites   map[string]string   // job → the site its latest handled decision placed it at
	Moved   []gruber.Dispatch   // the records a re-plan found, which its move takes out of every view
}

// check returns every broken promise, each tagged with its invariant.
func (f *facts) check() []string {
	var bad []string
	add := func(format string, a ...any) { bad = append(bad, fmt.Sprintf(format, a...)) }
	refKept, refFree := 0, []int(nil)
	for i, p := range f.Points {
		kept, free := 0, slices.Clone(p.Free) // an excused record neither counts nor holds CPUs
		held, seqs, seen := map[string]bool{}, map[string][]uint64{}, map[string]bool{}
		for _, d := range p.Records {
			seqs[d.Origin] = append(seqs[d.Origin], d.Seq)
			if _, ok := f.Excused[d.JobID]; ok {
				free[slices.IndexFunc(sites, func(s grid.Status) bool { return s.Name == d.Site })] += d.CPUs
				continue
			}
			k := fmt.Sprint(d.Origin, "/", d.Seq)
			if seen[k] { // (c) no duplicate
				add("(c) %s holds two records numbered %s", p.Name, k)
			}
			if held[d.JobID] { // (h) placement
				add("(h) %s counts %s twice", p.Name, d.JobID)
			}
			if site, ok := f.Sites[d.JobID]; ok && d.Site != site {
				add("(h) %s counts %s at %s; its latest decision placed it at %s", p.Name, d.JobID, d.Site, site)
			}
			kept, held[d.JobID], seen[k] = kept+1, true, true
		}
		if i == 0 {
			refKept, refFree = kept, free
		} else if kept != refKept || !slices.Equal(free, refFree) { // (a) convergence
			add("(a) %s holds %d records, free %v; %s holds %d, free %v", p.Name, kept, free, f.Points[0].Name, refKept, refFree)
		}
		// Gossip vectors agree on serving origins: a point that took a retired
		// origin's records from a snapshot keeps no log for them.
		for _, o := range f.Points {
			if f.Gossip && p.Vector[o.Name] != f.Points[0].Vector[o.Name] {
				add("(a) %s has vector %v, %s has %v", p.Name, p.Vector, f.Points[0].Name, f.Points[0].Vector)
				break
			}
		}
		var lost []string // (b) no acked loss
		for _, j := range f.Handled {
			if _, ok := f.Excused[j]; !ok && !held[j] {
				lost = append(lost, j)
			}
		}
		if len(lost) > 0 {
			add("(b) %s lacks %d acked jobs: %v", p.Name, len(lost), lost[:min(len(lost), 4)])
		}
		for o, s := range seqs { // (c) no gap; a lost or moved record leaves none
			for _, d := range f.Excused {
				if d.Origin == o {
					s = append(s, d.Seq)
				}
			}
			for _, d := range f.Moved {
				if d.Origin == o {
					s = append(s, d.Seq)
				}
			}
			slices.Sort(s)
			if s = slices.Compact(s); s[0] != 1 || s[len(s)-1] != uint64(len(s)) {
				add("(c) %s holds %s's records numbered %v", p.Name, o, s)
			}
		}
		for _, gone := range f.Removed[p.Name] { // (d) no resurrection
			if slices.Contains(p.Peers, gone) {
				add("(d) %s lists %s again after removing it", p.Name, gone)
			}
		}
	}
	for decision, headroom := range f.Limits { // (e) upper limits
		if headroom < 0 {
			add("(e) %s past the upper limit (headroom %.0f)", decision, headroom)
		}
	}
	if f.Probe[0] != f.Probe[1] { // (f) liveness
		add("(f) %d of %d probe decisions handled after heal", f.Probe[0], f.Probe[1])
	}
	slices.Sort(bad)
	return bad
}

// replayDiff is invariant (g): two runs of one schedule observe the same.
func replayDiff(a, b observation) string {
	if a.Timed || b.Timed {
		a = observation{Decisions: a.Decisions, Waves: a.Waves, Drains: a.Drains, Views: a.Views}
		b = observation{Decisions: b.Decisions, Waves: b.Waves, Drains: b.Drains, Views: b.Views}
	}
	if reflect.DeepEqual(a, b) {
		return ""
	}
	return fmt.Sprintf("(g) two runs of one schedule differ:\n first %+v\nsecond %+v", a, b)
}

// point is the driver's record of one decision point. A restart can run
// beside a walked step: run.mu guards up, restartAt and obs.Restart*.
type point struct {
	dp        *digruber.DecisionPoint
	store     *wal.MemStore // nil unless durable
	up        bool
	restartAt time.Time // zero: no restart due
	retired   bool
	crashView []gruber.Dispatch // a down point's records at its crash
	refusing  []string          // its placements when its store began to refuse syncs; nil: it does not
}

// run is one execution of a schedule.
type run struct {
	s             schedule
	clock         *vtime.Manual
	faults        *netsim.FaultPlane
	fleet         *exp.Fleet
	pts           []*point
	clients       []*digruber.Client
	metrics       *wire.ClientMetrics
	mu            sync.Mutex
	obs           observation
	f             facts
	bad           []string
	partitionLeft int // steps the open partition still holds
	healAt        time.Time
	jobs          int
	last          []string // per client, its latest handled job
}

// execute runs s on a fresh fleet: what it observed, the facts, and
// every promise it saw broken.
func execute(t *testing.T, s schedule) (observation, facts, []string) {
	t.Helper()
	n := s.Points
	r := &run{s: s, clock: vtime.NewManual(epoch), faults: netsim.NewFaultPlane(), metrics: wire.NewClientMetrics(),
		pts: make([]*point, n), obs: observation{Recovered: map[string]digruber.RecoveryStats{}}, last: make([]string, n),
		f: facts{Gossip: s.Gossip, Excused: map[string]gruber.Dispatch{}, Removed: map[string][]string{}, Limits: map[string]float64{},
			Sites: map[string]string{}}}
	network := netsim.New(1, netsim.Profile{})
	network.SetFaults(r.faults)
	budget := wire.NewRetryBudget(r.clock, 0.1, 2) // shared, as co-located hosts would
	fleet, err := exp.NewFleet(exp.FleetSpec{
		Clock: r.clock, Network: network, Points: n, Clients: n,
		Sites: func() []grid.Status { return sites },
		Point: func(i int, cfg *digruber.Config) {
			r.pts[i] = &point{up: true}
			cfg.Name, cfg.Addr, cfg.PeerTimeout, cfg.Policies = pointName(i), pointName(i), 10*time.Second, usla.NewPolicySet()
			_ = cfg.Policies.AddAll(policy) // entries parsed from a constant
			if s.Gossip {
				cfg.Strategy = digruber.Gossip
			}
			if s.Durable {
				r.pts[i].store = wal.NewMemStore()
				cfg.Durability = &digruber.DurabilityConfig{Store: r.pts[i].store, CheckpointEvery: -1}
			}
			if s.Overload {
				cfg.MeshLane = 1
			}
		},
		Client: func(i int, cfg *digruber.ClientConfig) {
			cfg.Name, cfg.Timeout = fmt.Sprintf("client-%d", i), 10*time.Second
			cfg.RNG = netsim.Stream(99, "promises."+cfg.Name)
			for k := 1; k < n; k++ {
				q := pointName((i + k) % n)
				cfg.Failover = append(cfg.Failover, digruber.DPRef{Name: q, Node: q, Addr: q})
			}
			cfg.Retry = wire.RetryPolicy{Attempts: 2} // a connection that died with its point costs a retry, not the job
			if s.Overload {
				cfg.WireMetrics, cfg.Retry = r.metrics, wire.RetryPolicy{Attempts: 3, Budget: budget}
				cfg.PropagateDeadline, cfg.LoadAwareFailover = true, true
				cfg.Breaker = wire.BreakerConfig{Threshold: 2, Cooldown: 30 * time.Second}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	r.fleet, r.clients = fleet, fleet.Clients()
	for i, dp := range fleet.Points() {
		r.pts[i].dp = dp
	}
	for _, st := range s.Steps {
		r.step(st)
	}
	r.heal()
	r.fail(r.f.check()...)
	return r.obs, r.f, r.bad
}

func pointName(i int) string { return fmt.Sprintf("dp-%d", i) }

// fail records broken promises, each once.
func (r *run) fail(msgs ...string) {
	for _, m := range msgs {
		if !slices.Contains(r.bad, m) {
			r.bad = append(r.bad, m)
		}
	}
}

func (r *run) serving(p int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pts[p].up && !r.pts[p].retired
}

func (r *run) step(st step) {
	r.drive(false, func() { r.restartDue(r.clock.Now()) })
	p, q := st.P%r.s.Points, st.Q%r.s.Points
	pt := r.pts[p]
	switch st.Op {
	case opSubmit:
		r.drive(false, func() { r.obs.Waves = append(r.obs.Waves, r.submit()) })
	case opExchange:
		r.drive(false, r.exchange)
	case opReplan:
		r.clock.Advance(time.Second) // the failed placement took time: the re-plan is the later record
		r.drive(false, func() { r.replan(p) })
	case opAdvance:
		r.clock.Advance(st.D)
	case opCrash:
		r.crash(p, st.D)
	case opRestart:
		r.drive(false, func() { r.restart(p) })
	case opPartition:
		r.partition(st.Side, int(st.N))
		return // the steps it holds for count from the next one
	case opDrain:
		r.drain(p, st.D)
	case opRemove:
		if r.pts[q].retired && !pt.retired && p != q {
			pt.dp.RemovePeer(pointName(q))
			r.f.Removed[pointName(p)] = append(r.f.Removed[pointName(p)], pointName(q))
		}
	case opTruncate, opFlipBit:
		if pt.store == nil || r.serving(p) || pt.retired || pt.store.Size("wal.log") <= 0 {
			break
		}
		if size := pt.store.Size("wal.log"); st.Op == opTruncate {
			pt.store.Truncate("wal.log", size-min(max(st.N, 1), size))
		} else {
			pt.store.FlipBit("wal.log", size*(st.N%1000)/1000, uint(st.N%8))
		}
		r.writeOff(p, pt.crashView)
	case opFailSyncs:
		if pt.store == nil || pt.retired {
			break
		}
		if pt.store.FailNextSyncs(int(st.N)); pt.refusing == nil { // refusals already armed keep their start
			if pt.refusing = placements(pt.crashView); r.serving(p) {
				pt.refusing = placements(pt.dp.Engine().ExportSnapshot())
			}
		}
	}
	if r.partitionLeft > 0 {
		if r.partitionLeft--; r.partitionLeft == 0 {
			r.healPartition()
		}
	}
	r.fail((&facts{Removed: r.f.Removed, Points: r.read(false)}).check()...) // (d) after every step
}

// drive runs fn. While a partition holds, or when walk is set, fn runs
// beside this goroutine walking the clock a second at a time: lost calls
// wait out their timeouts, a drain sleeps between polls. A drain's walk
// restarts the points falling due before the clock reaches them; other
// restarts wait for the next step. The walk's length depends on
// scheduling, so the clock then moves to the next whole two minutes.
func (r *run) drive(walk bool, fn func()) {
	if r.partitionLeft == 0 && !walk {
		fn()
		return
	}
	r.obs.Timed = true
	defer func(start time.Time) {
		r.clock.AdvanceTo(start.Add(r.clock.Since(start).Truncate(2*time.Minute) + 2*time.Minute))
	}(r.clock.Now())
	var busy atomic.Int64
	spawn := func(f func()) {
		busy.Add(1)
		go func() {
			defer busy.Add(-1)
			f()
		}()
	}
	for spawn(fn); busy.Load() > 0; time.Sleep(time.Millisecond) {
		next := r.clock.Now().Add(time.Second)
		switch {
		case !walk:
		case r.partitionLeft > 0: // a resync across the split waits on the clock
			spawn(func() { r.restartDue(next) })
		default:
			r.restartDue(next)
		}
		r.clock.AdvanceTo(next)
	}
}

// submit sends one job from every client in index order and counts the
// handled decisions.
func (r *run) submit() int {
	handled := 0
	for i, c := range r.clients {
		r.jobs++
		id := fmt.Sprintf("job-%03d", r.jobs)
		dec := r.fleet.Submit(i, id, "atlas", 1000*time.Hour) // outlasts every schedule: nothing expires
		if r.decided(i, c, id, dec, ""); dec.Handled {
			handled++
			r.f.Handled = append(r.f.Handled, id)
		}
	}
	return handled
}

// replan re-plans client i's latest handled job as Euryale does after the
// job's site failed it: the client selects again, that site excluded,
// through whichever point it is bound to now (ScheduleExcluding, from
// export_test.go: the decision SelectSite returns the site of). The records the job has so
// far are noted for (c), since the move takes them out of every view.
func (r *run) replan(i int) {
	id, c := r.last[i], r.clients[i]
	from, ok := r.f.Sites[id]
	if !ok {
		return
	}
	for p, pt := range r.pts {
		view := pt.crashView
		if r.serving(p) {
			view = pt.dp.Engine().ExportSnapshot()
		}
		for _, d := range view {
			if d.JobID == id {
				r.f.Moved = append(r.f.Moved, d)
			}
		}
	}
	job := &grid.Job{ID: grid.JobID(id), Owner: usla.MustParsePath("atlas"), CPUs: 1, Runtime: 1000 * time.Hour,
		SubmitHost: fmt.Sprintf("client-%d", i)}
	r.decided(i, c, id, c.ScheduleExcluding(job, map[string]bool{from: true}), " replan")
}

// decided notes client i's decision for job id: the observation, and for
// a handled one its site (h) and its headroom read back from the deciding
// point (e). An unhandled re-plan leaves the job's site unknown.
func (r *run) decided(i int, c *digruber.Client, id string, dec digruber.Decision, note string) {
	at := c.DPName()
	r.obs.Decisions = append(r.obs.Decisions, fmt.Sprintf("client-%d %s %s %t %s%s", i, id, dec.Site, dec.Handled, at, note))
	if !dec.Handled {
		delete(r.f.Sites, id)
		return
	}
	r.last[i], r.f.Sites[id] = id, dec.Site
	for _, pt := range r.pts {
		for _, l := range pt.dp.Engine().SiteLoads(usla.MustParsePath("atlas"), 1) {
			if pt.dp.Name() == at && l.Name == dec.Site {
				r.f.Limits[at+" put "+id+" on "+l.Name] = l.Headroom
			}
		}
	}
}

func (r *run) exchange() {
	for p, pt := range r.pts {
		if r.serving(p) {
			pt.dp.ExchangeNow()
		}
	}
}

// placement names a job at a site: a re-planned job has one per record.
func placement(d gruber.Dispatch) string { return d.JobID + "@" + d.Site }

func placements(ds []gruber.Dispatch) []string {
	out := []string{}
	for _, d := range ds {
		out = append(out, placement(d))
	}
	return out
}

func jobIDs(ds []gruber.Dispatch) []string {
	ids := []string{}
	for _, d := range ds {
		ids = append(ids, d.JobID)
	}
	return ids
}

func (r *run) crash(p int, down time.Duration) {
	pt := r.pts[p]
	if !r.serving(p) {
		return
	}
	if pt.crashView = pt.dp.Engine().ExportSnapshot(); pt.store == nil {
		r.writeOff(p, pt.crashView)
	}
	// With its store refusing syncs, what came in since may be gone, and the
	// gap a refused batch leaves in the log drops its own records before it.
	for _, d := range pt.crashView {
		if pt.refusing != nil && (d.Origin == pt.dp.Name() || !slices.Contains(pt.refusing, placement(d))) {
			r.f.Excused[d.JobID] = d
		}
	}
	pt.dp.Crash()
	r.mu.Lock()
	defer r.mu.Unlock()
	if pt.up = false; down > 0 {
		pt.restartAt = r.clock.Now().Add(down)
	}
}

// writeOff excuses point p's records that no other serving point holds:
// a job's record at a site, so a move only p took in is written off too.
func (r *run) writeOff(p int, ds []gruber.Dispatch) {
	held := map[string]bool{}
	for q, pt := range r.pts {
		for _, d := range pt.dp.Engine().ExportSnapshot() {
			held[placement(d)] = held[placement(d)] || (q != p && r.serving(q))
		}
	}
	for _, d := range ds {
		if !held[placement(d)] {
			r.f.Excused[d.JobID] = d
		}
	}
}

func (r *run) restart(p int) {
	pt := r.pts[p]
	r.mu.Lock()
	if pt.up || pt.retired {
		r.mu.Unlock()
		return
	}
	pt.up, pt.restartAt = true, time.Time{}
	r.mu.Unlock()
	n, donor, err := 0, "", pt.dp.Start()
	if err == nil {
		if n, donor = pt.dp.ResyncFromPeers(); pt.refusing != nil {
			pt.refusing = placements(pt.dp.Engine().ExportSnapshot())
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.obs.Restarts = append(r.obs.Restarts, fmt.Sprintf("%s <- %q: %d %v", pt.dp.Name(), donor, n, err))
	if pt.up = err == nil; pt.store != nil && err == nil { // a refusing store fails Start; heal retries
		r.obs.Recovered[pt.dp.Name()] = pt.dp.LastRecovery()
	}
}

// restartDue restarts every crashed point whose downtime ends by then.
func (r *run) restartDue(by time.Time) {
	for p, pt := range r.pts {
		r.mu.Lock()
		due := !pt.up && !pt.restartAt.IsZero() && !by.Before(pt.restartAt)
		if r.mu.Unlock(); due {
			r.restart(p)
		}
	}
}

// partition cuts the points in side and their home clients off for the
// next n steps (1 or 2); healing runs a round. Three failed rounds mark a
// link dead, and a stepped fleet's probe backoff never elapses.
func (r *run) partition(side []int, n int) {
	if r.partitionLeft > 0 {
		r.healPartition()
	}
	var nodes []string
	for _, p := range side {
		nodes = append(nodes, pointName(p%r.s.Points), fmt.Sprintf("client-%d", p%r.s.Points))
	}
	r.healAt = r.clock.Now().Add(2 * time.Hour)
	r.faults.Partition(nodes, r.clock.Now(), r.healAt)
	r.partitionLeft = min(max(n, 1), 2)
}

func (r *run) healPartition() {
	r.partitionLeft = 0
	r.clock.AdvanceTo(r.healAt)
	r.restartDue(r.healAt)
	r.exchange()
}

// drain retires point p as the Controller does: its clients move to the
// next serving point first. The survivors' RemovePeers are steps of their own.
func (r *run) drain(p int, deadline time.Duration) {
	if !r.serving(p) {
		return
	}
	r.rebind(func(_ int, c *digruber.Client) bool { return c.DPName() == pointName(p) }, func(int) int { return p + 1 })
	var err error
	if r.drive(true, func() { err = r.pts[p].dp.Drain(deadline) }); err == nil {
		r.mu.Lock()
		r.pts[p].retired, r.pts[p].up = true, false
		r.mu.Unlock()
	}
	r.obs.Drains = append(r.obs.Drains, fmt.Sprint(err))
}

// rebind moves each client leave selects to the first serving point from
// start(i) on in ring order.
func (r *run) rebind(leave func(i int, c *digruber.Client) bool, start func(i int) int) {
	for i, c := range r.clients {
		for k := 0; leave(i, c) && k < r.s.Points; k++ {
			if q := (start(i) + k) % r.s.Points; r.serving(q) {
				c.Rebind(pointName(q), pointName(q), pointName(q))
				break
			}
		}
	}
}

// heal ends every fault and lets the fleet quiesce: the partition closes,
// disks stop refusing, down points restart, clients go home (or on, as a
// monitor would rebalance), cooldowns pass and rounds run until the views
// agree. A probe wave (f) and more rounds follow; then the facts are read.
func (r *run) heal() {
	if r.partitionLeft > 0 {
		r.healPartition()
	}
	for p, pt := range r.pts {
		if pt.store != nil {
			pt.store.FailNextSyncs(0)
		}
		if r.restart(p); !r.serving(p) && !pt.retired {
			r.fail(fmt.Sprintf("(f) %s did not restart after heal", pointName(p)))
		}
	}
	r.rebind(func(int, *digruber.Client) bool { return true }, func(i int) int { return i })
	r.clock.Advance(time.Minute)
	r.converge()
	r.f.Probe = [2]int{r.submit(), len(r.clients)}
	if r.converge(); r.fleet.Quiesce() != nil {
		r.fail("(f) the fleet did not quiesce")
	}
	r.f.Points = r.read(true)
	for _, p := range r.f.Points {
		ids := jobIDs(p.Records)
		slices.Sort(ids)
		r.obs.Views = append(r.obs.Views, fmt.Sprintf("%s: %d jobs %x, free %v, vector %v",
			p.Name, len(ids), sha256.Sum256([]byte(strings.Join(ids, " "))), p.Free, p.Vector))
	}
	for _, pt := range r.pts {
		for _, name := range []string{"wal.log", "checkpoint"} {
			if pt.store != nil && pt.store.Size(name) >= 0 {
				f, _ := pt.store.Open(name) // it exists, and a MemStore read cannot fail
				data, _ := io.ReadAll(f)
				r.obs.Images = append(r.obs.Images, fmt.Sprintf("%s %x", name, sha256.Sum256(data)))
			}
		}
	}
	r.obs.Throttled = r.metrics.Stats().Throttled
}

// converge runs rounds until the views agree, as many as gossip may need.
func (r *run) converge() {
	for round := 0; round < 2*r.s.Points+4; round++ {
		r.exchange()
		f := facts{Gossip: r.s.Gossip, Points: r.read(true), Excused: r.f.Excused}
		if !slices.ContainsFunc(f.check(), func(m string) bool { return strings.HasPrefix(m, "(a)") }) {
			return
		}
	}
}

// read returns the serving points' facts; views only when asked.
func (r *run) read(views bool) []pointFacts {
	var out []pointFacts
	for p, pt := range r.pts {
		if !r.serving(p) {
			continue
		}
		pf := pointFacts{Name: pt.dp.Name(), Peers: pt.dp.Peers()}
		if views {
			pf.Records, pf.Vector = pt.dp.Engine().ExportSnapshot(), pt.dp.Engine().OriginVector()
			for _, st := range sites {
				pf.Free = append(pf.Free, pt.dp.Engine().EstFreeCPUs(st.Name))
			}
		}
		out = append(out, pf)
	}
	return out
}

// verdict runs s, twice when replay is set, and returns the first run's
// observation and every promise broken.
func verdict(t *testing.T, s schedule, replay bool) (observation, []string) {
	o, _, bad := execute(t, s)
	if replay {
		o2, _, bad2 := execute(t, s)
		if bad = append(bad, bad2...); replayDiff(o, o2) != "" {
			bad = append(bad, replayDiff(o, o2))
		}
	}
	return o, bad
}

// checkSchedule is verdict failing t on every broken promise.
func checkSchedule(t *testing.T, s schedule, replay bool) observation {
	t.Helper()
	o, bad := verdict(t, s, replay)
	for _, m := range bad {
		t.Error(m)
	}
	return o
}

// pointOf is the index of a "dp-N" node (N < 10) a crash schedule names.
func pointOf(node string) int { return int(node[len(node)-1] - '0') }

func advance(d time.Duration) step { return step{Op: opAdvance, D: d} }

var submit, exchange = step{Op: opSubmit}, step{Op: opExchange}

// chaosCrashRecovery: a 10-point mesh takes two waves, the fault plane
// crashes 3 points, their clients fail over, the points restart.
func chaosCrashRecovery() schedule {
	s := schedule{Points: 10, Steps: []step{submit, advance(time.Second), submit, exchange}}
	var restarts []step
	for _, c := range netsim.RandomCrashes(7, "chaos", []string{"dp-1", "dp-3", "dp-4", "dp-6", "dp-7"}, 3, 0, time.Minute, time.Minute, 2*time.Minute) {
		s.Steps = append(s.Steps, step{Op: opCrash, P: pointOf(c.Node)})
		restarts = append(restarts, step{Op: opRestart, P: pointOf(c.Node)})
	}
	s.Steps = append(s.Steps, advance(time.Second))
	for k := 0; k < 7; k++ {
		s.Steps = append(s.Steps, []step{submit, exchange}[k/4], advance(time.Second))
	}
	s.Steps = append(append(s.Steps, restarts...), advance(time.Second), submit, exchange, exchange)
	return s
}

// TestChaosCrashRecoveryDeterministic: 90 % of the pre-fault handled
// fraction after heal, a snapshot donor per restart, promises, replay.
func TestChaosCrashRecoveryDeterministic(t *testing.T) {
	o := checkSchedule(t, chaosCrashRecovery(), true)
	if pre, post := float64(o.Waves[0]+o.Waves[1])/20, float64(o.Waves[6])/10; pre < 1 || post < 0.9*pre {
		t.Errorf("handled fraction %.2f before the fault, %.2f after heal; want 1 and at least 90 %% of it (waves %v)", pre, post, o.Waves)
	}
	if strings.Contains(strings.Join(o.Restarts[:3], " "), `""`) {
		t.Errorf("a restarted point found no snapshot donor: %q", o.Restarts[:3])
	}
}

// overloadChaos: a 6-point mesh, the overload plane on every client, a
// wave every 10 s and a round every third; seeded windows crash two points.
func overloadChaos() schedule {
	s := schedule{Points: 6, Overload: true}
	windows := netsim.RandomCrashes(13, "overload", []string{"dp-1", "dp-2", "dp-3", "dp-4", "dp-5"}, 2, 30*time.Second, 90*time.Second, time.Minute, 2*time.Minute)
	for k := 0; k < 24; k++ {
		at := time.Duration(k) * 10 * time.Second
		for _, w := range windows {
			if w.From <= at && at < w.From+10*time.Second {
				s.Steps = append(s.Steps, step{Op: opCrash, P: pointOf(w.Node), D: w.Until - at})
			}
		}
		if s.Steps = append(s.Steps, submit); k%3 == 2 {
			s.Steps = append(s.Steps, exchange)
		}
		s.Steps = append(s.Steps, advance(10*time.Second))
	}
	s.Steps = append(s.Steps, advance(time.Minute), submit, advance(10*time.Second), submit, exchange)
	return s
}

// TestOverloadChaosDeterministic: goodput dips and recovers, the shared
// budget throttles, promises, replay. Each home breaker ends closed: the
// heal sends clients home, and the probe wave (f) passes through it.
func TestOverloadChaosDeterministic(t *testing.T) {
	o := checkSchedule(t, overloadChaos(), true)
	if slices.Min(o.Waves[:3]) != 6 || slices.Min(o.Waves[3:24]) >= 6 || o.Waves[len(o.Waves)-1] < 6 || o.Throttled < 1 {
		t.Errorf("waves %v, %d throttled: want 6 handled before the faults, a dip while they last, 6 after, and a throttled retry", o.Waves, o.Throttled)
	}
}

// drainPartition: dp-0 drains while dp-1 is down for downtime. A drain
// that is to abort is followed by a wave, the heal and a second drain.
func drainPartition(downtime, deadline time.Duration) schedule {
	s := schedule{Points: 2, Steps: []step{submit, {Op: opCrash, P: 1, D: downtime}, {Op: opDrain, D: deadline}}}
	if deadline < downtime {
		s.Steps = append(s.Steps, submit, advance(downtime), step{Op: opDrain, D: deadline})
	}
	return s
}

// TestDrainCompletesAfterPartitionHeals: the drain rides out the downtime.
func TestDrainCompletesAfterPartitionHeals(t *testing.T) {
	if o := checkSchedule(t, drainPartition(30*time.Second, 5*time.Minute), false); !slices.Equal(o.Drains, []string{"<nil>"}) {
		t.Errorf("drains %q, want one that retires dp-0", o.Drains)
	}
}

// TestDrainAbortsWhenPartitionOutlastsDeadline: the drain aborts back to
// serving, dp-0 answers its client, and the drain after the heal retires it.
func TestDrainAbortsWhenPartitionOutlastsDeadline(t *testing.T) {
	o := checkSchedule(t, drainPartition(5*time.Minute, time.Minute), false)
	if len(o.Drains) != 2 || o.Drains[0] == "<nil>" || o.Drains[1] != "<nil>" || !strings.HasSuffix(o.Decisions[2], " true dp-0") {
		t.Errorf("drains %q and %q after the first: want an abort, dp-0 handling, then a retirement", o.Drains, o.Decisions[2])
	}
}

// TestDrainPartitionChaosDeterministic: both races replay.
func TestDrainPartitionChaosDeterministic(t *testing.T) {
	t.Run("heal-inside-deadline", func(t *testing.T) { checkSchedule(t, drainPartition(30*time.Second, 5*time.Minute), true) })
	t.Run("partition-outlasts-deadline", func(t *testing.T) { checkSchedule(t, drainPartition(5*time.Minute, time.Minute), true) })
}

// fleetCrash: a 4-point durable mesh takes load and crashes whole, two
// stores are damaged (a torn write, a bit flip), and every point restarts.
func fleetCrash() schedule {
	s := schedule{Points: 4, Durable: true}
	for k := 0; k < 3; k++ {
		s.Steps = append(s.Steps, submit, submit, exchange, advance(time.Minute))
	}
	for p := 0; p < 4; p++ {
		s.Steps = append(s.Steps, step{Op: opCrash, P: p})
	}
	s.Steps = append(s.Steps, step{Op: opTruncate, P: 1, N: 5}, step{Op: opFlipBit, P: 2, N: 500}, advance(15*time.Minute))
	for p := 0; p < 4; p++ {
		s.Steps = append(s.Steps, step{Op: opRestart, P: p})
	}
	s.Steps = append(s.Steps, exchange)
	return s
}

// TestFleetCrashRecoveryDeterministic: truncation plus backfill at dp-1
// and dp-2, a clean replay at dp-0, nothing lost, stores replay byte for byte.
func TestFleetCrashRecoveryDeterministic(t *testing.T) {
	o := checkSchedule(t, fleetCrash(), true)
	rec := o.Recovered
	if !rec["dp-1"].Truncated || rec["dp-1"].Backfilled == 0 || !rec["dp-2"].Truncated || rec["dp-2"].Backfilled == 0 || rec["dp-0"].Truncated || rec["dp-0"].Backfilled != 0 {
		t.Errorf("recoveries %+v, want truncation plus backfill at dp-1 and dp-2, a clean replay at dp-0", rec)
	}
	if !strings.HasPrefix(o.Views[0], "dp-0: 28 jobs") {
		t.Errorf("%s, want the 24 jobs acked before the crash and 4 probes", o.Views[0])
	}
}

// retireDuringGossip is the checker's own find, shrunk and pasted as
// printed: dp-1 retires and dp-3 removes it, and the heal's rounds reach
// dp-3 from points that still list dp-1, whose hearsay must not re-add it.
var retireDuringGossip = schedule{Points: 4, Gossip: true, Durable: true, Overload: false, Steps: []step{step{Op: "drain", P: 1, Q: 0, N: 0, D: 60000000000, Side: []int(nil)}, step{Op: "remove", P: 3, Q: 1, N: 0, D: 0, Side: []int(nil)}}}

// drainAfterPeerCrash is seed 461, shrunk and pasted as printed: dp-1
// acknowledges dp-0's jobs and crashes, and dp-0 drains while it is
// down. The drain must not retire dp-0 on dp-1's acknowledgment from
// before the crash: dp-1 would come back without the jobs.
var drainAfterPeerCrash = schedule{Points: 2, Gossip: true, Durable: false, Overload: true, Steps: []step{step{Op: "submit", P: 0, Q: 0, N: 0, D: 0, Side: []int(nil)}, step{Op: "exchange", P: 0, Q: 0, N: 0, D: 0, Side: []int(nil)}, step{Op: "crash", P: 1, Q: 0, N: 0, D: 120000000000, Side: []int(nil)}, step{Op: "drain", P: 0, Q: 0, N: 0, D: 45000000000, Side: []int(nil)}}}

// TestPromisesDrainAfterPeerCrash: the drain aborts while dp-1 is down,
// so dp-0 keeps its jobs to serve dp-1's resync.
func TestPromisesDrainAfterPeerCrash(t *testing.T) {
	if o := checkSchedule(t, drainAfterPeerCrash, true); len(o.Drains) != 1 || o.Drains[0] == "<nil>" {
		t.Errorf("drains %q, want one that aborts while dp-1 is down", o.Drains)
	}
}

// resyncPastFirstDonor is seed 2807, shrunk and pasted as printed: dp-2
// crashes and, restarting, takes dp-0's job from dp-0's snapshot; then
// dp-0 crashes and resyncs from dp-1 first, which never held that job.
// dp-0 must take its own job back from dp-2 as well, or it numbers its
// next job like the one dp-2 holds.
var resyncPastFirstDonor = schedule{Points: 4, Gossip: false, Durable: false, Overload: false, Steps: []step{step{Op: "submit", P: 0, Q: 0, N: 0, D: 0, Side: []int(nil)}, step{Op: "crash", P: 2, Q: 0, N: 0, D: 60000000000, Side: []int(nil)}, step{Op: "advance", P: 0, Q: 0, N: 0, D: 110000000000, Side: []int(nil)}, step{Op: "crash", P: 0, Q: 0, N: 0, D: 120000000000, Side: []int(nil)}}}

func TestPromisesResyncPastFirstDonor(t *testing.T) {
	checkSchedule(t, resyncPastFirstDonor, true)
}

// crashAfterRefusedCommit is seed 885 of 3 000, shrunk and pasted as
// printed, once the client failed over at a refused commit: dp-0's store
// refuses client-0's job and the gossip round carries the record to
// dp-1; then both crash, and dp-0 restarts while dp-1 is down. Its store
// never held the job, so it must owe a resync as a point without one
// does, or it numbers its next job like the one dp-1 holds, and dp-1,
// whose vector covers that number, never takes it.
var crashAfterRefusedCommit = schedule{Points: 2, Gossip: true, Durable: true, Overload: false, Steps: []step{step{Op: "failsyncs", P: 0, Q: 0, N: 3, D: 0, Side: []int(nil)}, step{Op: "submit", P: 0, Q: 0, N: 0, D: 0, Side: []int(nil)}, step{Op: "exchange", P: 0, Q: 0, N: 0, D: 0, Side: []int(nil)}, step{Op: "crash", P: 1, Q: 0, N: 0, D: 120000000000, Side: []int(nil)}, step{Op: "crash", P: 0, Q: 0, N: 0, D: 0, Side: []int(nil)}}}

func TestPromisesCrashAfterRefusedCommit(t *testing.T) {
	checkSchedule(t, crashAfterRefusedCommit, true)
}

// TestPromisesReplanThroughAnotherPoint: client-0's job is re-planned
// once through its own point and, after that point drains, again through
// the next one; a durable mesh crashes and restarts whole. Every view
// counts the job once, at the third site, under either strategy.
func TestPromisesReplanThroughAnotherPoint(t *testing.T) {
	replan := step{Op: opReplan}
	for _, gossip := range []bool{false, true} {
		s := schedule{Points: 3, Gossip: gossip, Durable: true, Steps: []step{submit, exchange, replan, {Op: opDrain, D: time.Minute},
			replan, {Op: opCrash, P: 1}, {Op: opCrash, P: 2}, {Op: opRestart, P: 1}, {Op: opRestart, P: 2}, exchange}}
		o := checkSchedule(t, s, true)
		var moves []string
		for _, d := range o.Decisions {
			if strings.HasPrefix(d, "client-0 job-001") {
				moves = append(moves, d)
			}
		}
		if len(moves) != 3 || !strings.HasSuffix(moves[1], " true dp-0 replan") || !strings.HasSuffix(moves[2], " true dp-1 replan") {
			t.Errorf("gossip=%t: job-001's decisions %q; want a submit and two handled re-plans, through dp-0 and then dp-1", gossip, moves)
		}
	}
}

// randomSchedules is how many seeds TestPromises draws; every tenth
// schedule runs a second time for replay. Tier-1 draws 150; CI also runs
// the 3 000-seed sweep as a step of its own:
//
//	go test ./internal/digruber -run '^TestPromises$' -promise-seeds 3000
var randomSchedules = flag.Int64("promise-seeds", 150, "how many seeded schedules TestPromises draws")

// randomSchedule draws a fleet shape and 12 to 23 steps. A drain is
// followed, steps apart, by RemovePeer at every other point in order.
// Time moves in 10 s steps and downtimes in minutes: a 45 s drain
// deadline never meets a restart within a walked second.
func randomSchedule(seed int64) schedule {
	rng := netsim.Stream(seed, "promises")
	s := schedule{Points: 2 + rng.Intn(4), Gossip: rng.Intn(2) == 0, Durable: rng.Intn(2) == 0, Overload: rng.Intn(3) == 0}
	var owed []step // the removes a drain left to issue
	for drains, n := 0, 12+rng.Intn(12); len(s.Steps) < n || len(owed) > 0; {
		if len(owed) > 0 && rng.Intn(2) == 0 {
			s.Steps, owed = append(s.Steps, owed[0]), owed[1:]
			continue
		}
		p, st := rng.Intn(s.Points), submit
		switch rng.Intn(16) {
		case 3:
			st = step{Op: opReplan, P: p}
		case 4, 5, 6, 7:
			st = exchange
		case 8:
			st = advance(time.Duration(1+rng.Intn(12)) * 10 * time.Second)
		case 9:
			st = step{Op: opCrash, P: p, D: time.Duration(rng.Intn(3)) * time.Minute}
		case 10:
			st = step{Op: opRestart, P: p}
		case 11:
			st = step{Op: opPartition, N: 1 + rng.Int63n(2)}
			for q := 0; q < s.Points; q++ {
				if q == p || (q != (p+1)%s.Points && rng.Intn(2) == 0) {
					st.Side = append(st.Side, q)
				}
			}
		case 12:
			if drains+1 < s.Points && len(owed) == 0 {
				st, drains = step{Op: opDrain, P: p, D: 45 * time.Second}, drains+1
				for q := 0; q < s.Points; q++ {
					if q != p {
						owed = append(owed, step{Op: opRemove, P: q, Q: p})
					}
				}
			}
		case 13:
			st = step{Op: opTruncate, P: p, N: 1 + rng.Int63n(64)}
		case 14:
			st = step{Op: opFlipBit, P: p, N: rng.Int63n(1000)}
		case 15:
			st = step{Op: opFailSyncs, P: p, N: 1 + rng.Int63n(3)}
		}
		s.Steps = append(s.Steps, st)
	}
	return s
}

// TestPromises runs the checker's own named schedule and randomSchedules
// drawn ones. A failing one is shrunk, dropping steps while it still
// breaks the same invariant, and printed as a literal to paste in.
func TestPromises(t *testing.T) {
	checkSchedule(t, retireDuringGossip, true)
	for seed := int64(1); seed <= *randomSchedules; seed++ {
		s := randomSchedule(seed)
		_, bad := verdict(t, s, seed%10 == 0)
		if len(bad) == 0 {
			continue
		}
		for i := 0; i < len(s.Steps) && !strings.HasPrefix(bad[0], "(g)"); {
			c := s
			c.Steps = slices.Delete(slices.Clone(s.Steps), i, i+1)
			if _, _, cbad := execute(t, c); slices.ContainsFunc(cbad, func(m string) bool { return m[:3] == bad[0][:3] }) {
				s = c
			} else {
				i++
			}
		}
		t.Errorf("seed %d: %s\nshrunk to %s", seed, strings.Join(bad, "\n"), strings.ReplaceAll(fmt.Sprintf("%#v", s), "digruber_test.", ""))
	}
}

// TestPromisesCatchPlantedBugs feeds the checker doctored facts and
// observations, one planted bug per invariant, and wants each caught.
func TestPromisesCatchPlantedBugs(t *testing.T) {
	o, f, bad := execute(t, schedule{Points: 3, Gossip: true, Steps: []step{
		submit, {Op: opDrain, P: 2, D: time.Minute}, {Op: opRemove, P: 0, Q: 2}, {Op: opRemove, P: 1, Q: 2}, submit}})
	if len(bad) > 0 || len(f.Points) != 2 || len(f.Points[0].Records) < 2 || len(f.Limits) == 0 {
		t.Fatalf("the clean run: %v; %d points, %d limits", bad, len(f.Points), len(f.Limits))
	}
	for invariant, doctor := range map[string]func(p []pointFacts, f *facts){
		"(a)": func(p []pointFacts, _ *facts) { p[1].Free = []int{0, 0, 0, 0} },
		"(b)": func(p []pointFacts, f *facts) {
			p[1].Records = slices.DeleteFunc(slices.Clone(p[1].Records), func(d gruber.Dispatch) bool { return d.JobID == f.Handled[0] })
		},
		"(c)": func(p []pointFacts, _ *facts) { p[0].Records = append(slices.Clone(p[0].Records), p[0].Records[0]) },
		"(d)": func(p []pointFacts, _ *facts) { p[0].Peers = append(p[0].Peers, "dp-2") },
		"(e)": func(_ []pointFacts, f *facts) { f.Limits = map[string]float64{"dp-0 put job-001 on site-000": -1} },
		"(f)": func(_ []pointFacts, f *facts) { f.Probe[0]-- },
		"(h)": func(p []pointFacts, _ *facts) {
			p[0].Records = slices.Clone(p[0].Records)
			p[0].Records[0].Site = "site-003"
			if p[0].Records[0].Site == f.Sites[p[0].Records[0].JobID] {
				p[0].Records[0].Site = "site-002"
			}
		},
	} {
		g := f
		g.Points = slices.Clone(f.Points)
		if doctor(g.Points, &g); !slices.ContainsFunc(g.check(), func(m string) bool { return m[:3] == invariant }) {
			t.Errorf("planted %s bug not caught: %v", invariant, g.check())
		}
	}
	o2 := o
	o2.Decisions = append([]string{"client-0 job-001 site-000 false dp-1"}, o.Decisions[1:]...)
	if !strings.HasPrefix(replayDiff(o, o2), "(g)") {
		t.Error("planted (g) bug not caught")
	}
}

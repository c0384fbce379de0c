package digruber

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"digruber/internal/grid"
	"digruber/internal/gruber"
	"digruber/internal/netsim"
	"digruber/internal/usla"
	"digruber/internal/vtime"
	"digruber/internal/wire"
)

var epoch = time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)

// harness spins up n decision points in a full mesh over an in-memory
// transport with no WAN delay and an instant service stack, feeding each
// an identical static baseline of sites.
type harness struct {
	t     *testing.T
	mem   *wire.Mem
	clock vtime.Clock
	dps   []*DecisionPoint
}

func newHarness(t *testing.T, n int, clock vtime.Clock, statuses []grid.Status) *harness {
	// Exchange is driven manually via ExchangeNow: the interval is far
	// beyond any test's real-clock runtime.
	return newHarnessStrategy(t, n, clock, statuses, UsageOnly)
}

func newHarnessStrategy(t *testing.T, n int, clock vtime.Clock, statuses []grid.Status, strategy DisseminationStrategy) *harness {
	t.Helper()
	h := &harness{t: t, mem: wire.NewMem(), clock: clock}
	for i := 0; i < n; i++ {
		dp, err := New(Config{
			Name:             fmt.Sprintf("dp-%d", i),
			Addr:             fmt.Sprintf("dp-%d", i),
			Transport:        h.mem,
			Clock:            clock,
			Profile:          wire.Instant(),
			Strategy:         strategy,
			ExchangeInterval: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		dp.Engine().UpdateSites(statuses, clock.Now())
		h.dps = append(h.dps, dp)
	}
	for _, dp := range h.dps {
		for _, peer := range h.dps {
			if peer != dp {
				dp.AddPeer(peer.Name(), peer.Name(), peer.Addr())
			}
		}
		if err := dp.Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, dp := range h.dps {
			dp.Stop()
		}
	})
	return h
}

func (h *harness) client(i, dp int, sites []string) *Client {
	h.t.Helper()
	c, err := NewClient(ClientConfig{
		Name:          fmt.Sprintf("client-%d", i),
		DPName:        h.dps[dp].Name(),
		DPNode:        h.dps[dp].Name(),
		DPAddr:        h.dps[dp].Addr(),
		Transport:     h.mem,
		Clock:         h.clock,
		Timeout:       5 * time.Second,
		FallbackSites: sites,
		RNG:           netsim.Stream(7, fmt.Sprintf("test.client-%d", i)),
	})
	if err != nil {
		h.t.Fatal(err)
	}
	h.t.Cleanup(c.Close)
	return c
}

func testStatuses(free ...int) []grid.Status {
	out := make([]grid.Status, len(free))
	for i, f := range free {
		out[i] = grid.Status{
			Name:        fmt.Sprintf("site-%03d", i),
			TotalCPUs:   100,
			FreeCPUs:    f,
			UsageByPath: map[string]int{},
		}
	}
	return out
}

func testJob(id string) *grid.Job {
	return &grid.Job{ID: grid.JobID(id), Owner: usla.MustParsePath("atlas"), CPUs: 1, Runtime: time.Hour, SubmitHost: "client-0"}
}

func TestClientSchedulesThroughDP(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 1, clock, testStatuses(50, 80, 10))
	c := h.client(0, 0, nil)
	dec := c.Schedule(testJob("j1"))
	if dec.Err != nil {
		t.Fatal(dec.Err)
	}
	if !dec.Handled {
		t.Fatal("decision not handled by GRUBER")
	}
	if dec.Site != "site-001" {
		t.Fatalf("site = %s, want site-001 (most free CPUs)", dec.Site)
	}
	// The dispatch report must have updated the DP's view.
	if got := h.dps[0].Engine().EstFreeCPUs("site-001"); got != 79 {
		t.Fatalf("DP view after report = %d, want 79", got)
	}
}

func TestClientFallbackOnTimeout(t *testing.T) {
	// No decision point at the address: dial fails, fallback kicks in.
	mem := wire.NewMem()
	c, err := NewClient(ClientConfig{
		Name: "client-0", DPAddr: "nowhere", Transport: mem,
		Clock: vtime.NewReal(), Timeout: 50 * time.Millisecond,
		FallbackSites: []string{"site-a", "site-b"},
		RNG:           netsim.Stream(1, "t"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dec := c.Schedule(testJob("j1"))
	if dec.Handled {
		t.Fatal("decision marked handled despite unreachable DP")
	}
	if dec.Site != "site-a" && dec.Site != "site-b" {
		t.Fatalf("fallback site = %q", dec.Site)
	}
	if dec.Err != nil {
		t.Fatalf("fallback should succeed: %v", dec.Err)
	}
}

func TestClientFallbackWithoutSitesErrors(t *testing.T) {
	mem := wire.NewMem()
	c, _ := NewClient(ClientConfig{
		Name: "client-0", DPAddr: "nowhere", Transport: mem,
		Clock: vtime.NewReal(), Timeout: 20 * time.Millisecond,
		RNG: netsim.Stream(1, "t"),
	})
	defer c.Close()
	dec := c.Schedule(testJob("j1"))
	if dec.Err == nil {
		t.Fatal("expected error with no fallback sites")
	}
}

func TestExchangePropagatesDispatches(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 3, clock, testStatuses(100, 100))
	// Client of dp-0 schedules 10 jobs.
	c := h.client(0, 0, nil)
	for i := 0; i < 10; i++ {
		if dec := c.Schedule(testJob(fmt.Sprintf("j%d", i))); dec.Err != nil {
			t.Fatal(dec.Err)
		}
	}
	before1 := h.dps[1].Engine().Stats().RemoteDispatches
	if before1 != 0 {
		t.Fatalf("dp-1 saw %d dispatches before exchange", before1)
	}
	h.dps[0].ExchangeNow()
	s1, s2 := h.dps[1].Engine().Stats(), h.dps[2].Engine().Stats()
	if s1.RemoteDispatches != 10 || s2.RemoteDispatches != 10 {
		t.Fatalf("remote dispatches after exchange: dp-1=%d dp-2=%d, want 10/10", s1.RemoteDispatches, s2.RemoteDispatches)
	}
	// Views converge: all three DPs now estimate the same free CPUs.
	for i, dp := range h.dps {
		sum := dp.Engine().EstFreeCPUs("site-000") + dp.Engine().EstFreeCPUs("site-001")
		if sum != 190 {
			t.Fatalf("dp-%d total est free = %d, want 190", i, sum)
		}
	}
}

// TestConnectIsSymmetricAndIdempotent: one Connect gives each point a
// link to the other under the other's own name, node and address, which
// carries records both ways; repeating it, in either order, or
// connecting a point with itself, adds nothing.
func TestConnectIsSymmetricAndIdempotent(t *testing.T) {
	clock, mem := vtime.NewManual(epoch), wire.NewMem()
	point := func(name string) *DecisionPoint {
		dp, err := New(Config{
			Name: name, Node: "node-" + name, Addr: "addr/" + name,
			Transport: mem, Clock: clock, Profile: wire.Instant(), ExchangeInterval: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		dp.Engine().UpdateSites(testStatuses(100), clock.Now())
		if err := dp.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(dp.Stop)
		return dp
	}
	a, b := point("a"), point("b")
	Connect(a, b)
	first := a.peers["b"]
	Connect(b, a)
	Connect(a, b)
	Connect(a, a)

	for _, side := range []struct{ dp, other *DecisionPoint }{{a, b}, {b, a}} {
		if peers := side.dp.Peers(); len(peers) != 1 || peers[0] != side.other.Name() {
			t.Fatalf("%s peers = %v, want just %s", side.dp.Name(), peers, side.other.Name())
		}
		l := side.dp.peers[side.other.Name()]
		if l.node != "node-"+side.other.Name() || l.addr != side.other.Addr() {
			t.Fatalf("%s reaches %s at node %q addr %q", side.dp.Name(), side.other.Name(), l.node, l.addr)
		}
	}
	if a.peers["b"] != first {
		t.Fatal("a repeated Connect replaced the link (and with it the exchange cursors)")
	}

	a.Engine().RecordDispatch(gruber.Dispatch{JobID: "from-a", Site: "site-000", Owner: "atlas", CPUs: 1, Runtime: time.Hour, At: clock.Now()})
	b.Engine().RecordDispatch(gruber.Dispatch{JobID: "from-b", Site: "site-000", Owner: "atlas", CPUs: 1, Runtime: time.Hour, At: clock.Now()})
	a.ExchangeNow()
	b.ExchangeNow()
	if ra, rb := a.Engine().Stats().RemoteDispatches, b.Engine().Stats().RemoteDispatches; ra != 1 || rb != 1 {
		t.Fatalf("remote dispatches after one round each: a=%d b=%d, want 1 and 1", ra, rb)
	}
}

func TestExchangeIncrementalAndIdempotent(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 2, clock, testStatuses(100))
	c := h.client(0, 0, nil)
	c.Schedule(testJob("a"))
	h.dps[0].ExchangeNow()
	c.Schedule(testJob("b"))
	h.dps[0].ExchangeNow()
	h.dps[0].ExchangeNow() // nothing new
	st := h.dps[1].Engine().Stats()
	if st.RemoteDispatches != 2 {
		t.Fatalf("dp-1 remote dispatches = %d, want 2 (no duplicates applied)", st.RemoteDispatches)
	}
	if got := h.dps[1].Engine().EstFreeCPUs("site-000"); got != 98 {
		t.Fatalf("dp-1 est = %d, want 98", got)
	}
}

func TestPeriodicExchangeLoop(t *testing.T) {
	clock := vtime.NewManual(epoch)
	mem := wire.NewMem()
	mk := func(name string) *DecisionPoint {
		dp, err := New(Config{
			Name: name, Addr: name, Transport: mem, Clock: clock,
			Profile: wire.Instant(), Strategy: UsageOnly,
			ExchangeInterval: 3 * time.Minute,
		})
		if err != nil {
			t.Fatal(err)
		}
		dp.Engine().UpdateSites(testStatuses(100), clock.Now())
		return dp
	}
	a, b := mk("dp-a"), mk("dp-b")
	a.AddPeer("dp-b", "dp-b", "dp-b")
	b.AddPeer("dp-a", "dp-a", "dp-a")
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	defer b.Stop()

	a.Engine().RecordDispatch(gruber.Dispatch{JobID: "x", Site: "site-000", Owner: "atlas", CPUs: 5, Runtime: time.Hour, At: clock.Now()})
	clock.Advance(3 * time.Minute) // ticker fires; exchange runs in goroutine
	waitFor(t, func() bool { return b.Engine().Stats().RemoteDispatches == 1 })
	if got := b.Engine().EstFreeCPUs("site-000"); got != 95 {
		t.Fatalf("dp-b est = %d, want 95", got)
	}
}

func TestUSLADissemination(t *testing.T) {
	clock := vtime.NewReal()
	mem := wire.NewMem()
	psA := usla.NewPolicySet()
	entries, _ := usla.ParseTextString("* atlas cpu 25+")
	psA.AddAll(entries)
	a, err := New(Config{
		Name: "dp-a", Addr: "dp-a", Transport: mem, Clock: clock,
		Profile: wire.Instant(), Strategy: UsageAndUSLAs, Policies: psA,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Config{
		Name: "dp-b", Addr: "dp-b", Transport: mem, Clock: clock,
		Profile: wire.Instant(), Strategy: UsageAndUSLAs,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Engine().UpdateSites(testStatuses(100), clock.Now())
	b.Engine().UpdateSites(testStatuses(100), clock.Now())
	a.AddPeer("dp-b", "dp-b", "dp-b")
	b.AddPeer("dp-a", "dp-a", "dp-a")
	a.Start()
	b.Start()
	defer a.Stop()
	defer b.Stop()

	a.ExchangeNow()
	l := b.cfg.Policies.LimitsFor("site-000", usla.MustParsePath("atlas"), usla.CPU)
	if l.Upper != 25 {
		t.Fatalf("dp-b atlas upper = %v, want 25 (USLA disseminated)", l.Upper)
	}
}

func TestNoExchangeStrategyKeepsViewsApart(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarnessStrategy(t, 2, clock, testStatuses(100), NoExchange)
	c := h.client(0, 0, nil)
	c.Schedule(testJob("j1"))
	h.dps[0].ExchangeNow() // strategy is NoExchange: must be a no-op
	if st := h.dps[1].Engine().Stats(); st.RemoteDispatches != 0 {
		t.Fatal("NoExchange still propagated dispatches")
	}
}

func TestStatusRPC(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 1, clock, testStatuses(100))
	c := h.client(0, 0, nil)
	c.Schedule(testJob("j1"))
	cli := wire.NewClient(wire.ClientConfig{
		Node: "observer", ServerNode: h.dps[0].Name(), Addr: h.dps[0].Addr(),
		Transport: h.mem, Clock: clock,
	})
	defer cli.Close()
	st, err := wire.Call[StatusArgs, StatusReply](cli, MethodStatus, StatusArgs{}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Name != "dp-0" || st.Queries != 1 || st.LocalDispatches != 1 {
		t.Fatalf("status = %+v", st)
	}
}

func TestQueryValidation(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 1, clock, testStatuses(100))
	cli := wire.NewClient(wire.ClientConfig{
		Node: "x", ServerNode: "dp-0", Addr: "dp-0", Transport: h.mem, Clock: clock,
	})
	defer cli.Close()
	if _, err := wire.Call[QueryArgs, QueryReply](cli, MethodQuery, QueryArgs{Owner: "bad..path", CPUs: 1}, time.Second); err == nil {
		t.Fatal("bad owner accepted")
	}
	if _, err := wire.Call[QueryArgs, QueryReply](cli, MethodQuery, QueryArgs{Owner: "atlas", CPUs: 0}, time.Second); err == nil {
		t.Fatal("zero CPUs accepted")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{Name: "x", Addr: "a"}); err == nil {
		t.Fatal("missing transport accepted")
	}
	if _, err := NewClient(ClientConfig{}); err == nil {
		t.Fatal("empty client config accepted")
	}
}

func TestDoubleStartRejected(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 1, clock, testStatuses(10))
	if err := h.dps[0].Start(); err == nil {
		t.Fatal("second Start succeeded")
	}
}

// TestConcurrentQueriesAndExchanges hammers one decision point from every
// direction at once — client scheduling, inbound state exchanges from a
// peer, outbound exchanges, status RPCs, site-baseline refreshes, and the
// engine's read path against everything that writes under it — so
// `go test -race` can observe the full lock surface of the DP under
// contention. The paper's mesh relies on a DP serving queries while
// exchange traffic arrives; this is the smallest harness with that shape.
//
// The engine readers hold only the read lock and upgrade when a dispatch
// is due, so the test makes dispatches fall due while they run: a Manual
// clock steps past short-lived records written straight into the engine.
// It advances less in total than one client timeout, so no call expires.
func TestConcurrentQueriesAndExchanges(t *testing.T) {
	clock := vtime.NewManual(epoch)
	h := newHarness(t, 2, clock, testStatuses(400, 400, 400))

	const (
		clients     = 4
		jobsPerC    = 25
		exchRounds  = 40
		statusPolls = 60
		siteUpdates = 30
		readers     = 3
		readsPerR   = 150
		shortLived  = 120 // written directly, half recorded, half merged
		policyAdds  = 60
		clockSteps  = 40
		clockStep   = 100 * time.Millisecond
	)

	// dp-1's client gives the peer local dispatches to flood at dp-0.
	peerClient := h.client(100, 1, nil)
	for i := 0; i < 10; i++ {
		if dec := peerClient.Schedule(testJob(fmt.Sprintf("peer-j%d", i))); dec.Err != nil {
			t.Fatal(dec.Err)
		}
	}

	var wg sync.WaitGroup
	var scheduled atomic.Int64
	errs := make(chan error, clients*jobsPerC)

	// Client goroutines: concurrent queries + dispatch reports into dp-0.
	for c := 0; c < clients; c++ {
		cli := h.client(c, 0, nil)
		wg.Add(1)
		go func(c int, cli *Client) {
			defer wg.Done()
			for i := 0; i < jobsPerC; i++ {
				dec := cli.Schedule(testJob(fmt.Sprintf("c%d-j%d", c, i)))
				if dec.Err != nil {
					errs <- dec.Err
					return
				}
				scheduled.Add(1)
			}
		}(c, cli)
	}

	// Inbound exchanges: dp-1 pushes its state at dp-0 mid-query.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < exchRounds; i++ {
			h.dps[1].ExchangeNow()
		}
	}()

	// Outbound exchanges: dp-0 floods its own dispatch records.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < exchRounds; i++ {
			h.dps[0].ExchangeNow()
		}
	}()

	// Status readers: the observability path shares the DP's counters.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < statusPolls; i++ {
			st := h.dps[0].Status()
			if st.Name != "dp-0" {
				errs <- fmt.Errorf("status name = %q", st.Name)
				return
			}
		}
	}()

	// Baseline refreshes: the monitoring feed rewrites site state while
	// the scheduler reads it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < siteUpdates; i++ {
			h.dps[0].Engine().UpdateSites(testStatuses(400, 400, 400), clock.Now())
			for _, s := range []string{"site-000", "site-001", "site-002"} {
				h.dps[0].Engine().EstFreeCPUs(s)
			}
		}
	}()

	// Engine readers: SiteLoads from several goroutines at once, beside
	// the handler's own.
	eng := h.dps[0].Engine()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < readsPerR; i++ {
				if loads := eng.SiteLoads(usla.MustParsePath("atlas.higgs"), 1); len(loads) != 3 {
					errs <- fmt.Errorf("SiteLoads returned %d sites, want 3", len(loads))
					return
				}
			}
		}()
	}

	// Engine writers: records that fall due within a few clock steps,
	// half brokered here and half merged from a peer, while the clock
	// moves — so readers find the heap's head due and must upgrade.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < shortLived; i += 2 {
			d := gruber.Dispatch{
				JobID: fmt.Sprintf("short-%d", i), Site: "site-001", Owner: "cms.top", CPUs: 1,
				Runtime: time.Duration(1+i%3) * clockStep, At: clock.Now(),
			}
			eng.RecordDispatch(d)
			d.JobID, d.Origin = fmt.Sprintf("short-%d", i+1), "dp-elsewhere"
			eng.MergeRemote([]gruber.Dispatch{d})
			if i/2 < clockSteps {
				clock.Advance(clockStep)
			}
		}
	}()

	// USLA updates: an entry added before a query starts is in force for
	// that query. The probe VO has no usage anywhere, so its headroom at
	// site-002 is exactly the cap just set.
	wg.Add(1)
	go func() {
		defer wg.Done()
		probe := usla.Path{VO: "probe"}
		for i := 0; i < policyAdds; i++ {
			pct := float64(10 + i)
			err := h.dps[0].cfg.Policies.Add(usla.Entry{Provider: "site-002", Consumer: probe, Resource: usla.CPU,
				Share: usla.Share{Percent: pct, Kind: usla.UpperLimit}})
			if err != nil {
				errs <- err
				return
			}
			if got, want := eng.SiteLoads(probe, 1)[2].Headroom, 100*(pct/100); got != want {
				errs <- fmt.Errorf("headroom %v right after capping probe at %v%%, want %v", got, pct, want)
				return
			}
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	if got := scheduled.Load(); got != clients*jobsPerC {
		t.Fatalf("scheduled %d jobs, want %d", got, clients*jobsPerC)
	}
	// Queries is counted outside the engine lock; none may be lost.
	st := h.dps[0].Status()
	if want := int64(clients*jobsPerC + readers*readsPerR + policyAdds); st.Queries != want {
		t.Fatalf("dp-0 queries = %d, want %d (one per Schedule and per direct SiteLoads)", st.Queries, want)
	}
	if st.LocalDispatches != clients*jobsPerC+shortLived/2 {
		t.Fatalf("dp-0 local dispatches = %d, want %d", st.LocalDispatches, clients*jobsPerC+shortLived/2)
	}
	// A final settle round each way: both DPs must agree on totals.
	h.dps[0].ExchangeNow()
	h.dps[1].ExchangeNow()
	s0, s1 := h.dps[0].Engine().Stats(), h.dps[1].Engine().Stats()
	if s1.RemoteDispatches != clients*jobsPerC+shortLived/2 {
		t.Fatalf("dp-1 remote dispatches = %d, want %d", s1.RemoteDispatches, clients*jobsPerC+shortLived/2)
	}
	if s0.RemoteDispatches != 10+shortLived/2 {
		t.Fatalf("dp-0 remote dispatches = %d, want %d (peer's jobs and the direct merges)", s0.RemoteDispatches, 10+shortLived/2)
	}
	if s0.ExpiredPruned == 0 {
		t.Fatal("no dispatch expired while the readers ran: the upgrade path went unexercised")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// TestReportRefusesMalformedDispatch: a client's Report is validated as
// Schedule validates its input. Folded unchecked, a bad owner would be
// counted against the site but against no VO, and a non-positive CPU
// count would raise the free estimate; each must be refused and leave
// the engine exactly as it was.
func TestReportRefusesMalformedDispatch(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 1, clock, testStatuses(100))
	cli := wire.NewClient(wire.ClientConfig{
		Node: "client", ServerNode: "dp-0", Addr: h.dps[0].Addr(), Transport: h.mem, Clock: clock,
	})
	defer cli.Close()
	e := h.dps[0].Engine()
	good := gruber.Dispatch{JobID: "ok", Site: "site-000", Owner: "atlas.higgs", CPUs: 2, Runtime: time.Hour, At: clock.Now()}
	for name, mutate := range map[string]func(*gruber.Dispatch){
		"bad owner":        func(d *gruber.Dispatch) { d.Owner = "atlas..higgs" },
		"empty owner":      func(d *gruber.Dispatch) { d.Owner = "" },
		"zero CPUs":        func(d *gruber.Dispatch) { d.CPUs = 0 },
		"negative CPUs":    func(d *gruber.Dispatch) { d.CPUs = -40 },
		"zero runtime":     func(d *gruber.Dispatch) { d.Runtime = 0 },
		"negative runtime": func(d *gruber.Dispatch) { d.Runtime = -time.Minute },
	} {
		d := good
		d.JobID = name
		mutate(&d)
		if _, err := wire.Call[ReportArgs, ReportReply](cli, MethodReport, ReportArgs{Dispatch: d}, time.Second); err == nil {
			t.Errorf("%s: report accepted", name)
		}
		if free, pending, hw := e.EstFreeCPUs("site-000"), e.PendingDispatches(), e.LocalSeqHighWater(); free != 100 || pending != 0 || hw != 0 {
			t.Errorf("%s: refused report moved the engine: free=%d pending=%d highwater=%d", name, free, pending, hw)
		}
	}
	if reply, err := wire.Call[ReportArgs, ReportReply](cli, MethodReport, ReportArgs{Dispatch: good}, time.Second); err != nil || !reply.OK {
		t.Fatalf("well-formed report refused: %+v, %v", reply, err)
	}
	if free, pending, hw := e.EstFreeCPUs("site-000"), e.PendingDispatches(), e.LocalSeqHighWater(); free != 98 || pending != 1 || hw != 1 {
		t.Fatalf("after one good report: free=%d pending=%d highwater=%d, want 98/1/1", free, pending, hw)
	}
}

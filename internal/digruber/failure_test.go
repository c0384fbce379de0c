package digruber

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"digruber/internal/grid"
	"digruber/internal/gruber"
	"digruber/internal/netsim"
	"digruber/internal/usla"
	"digruber/internal/vtime"
	"digruber/internal/wire"
)

// TestStopStartLifecycle covers the restart contract: Stop is idempotent,
// Start after Stop brings the decision point back on the same address,
// and double Start errors.
func TestStopStartLifecycle(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 1, clock, testStatuses(50))
	dp := h.dps[0]
	if err := dp.Start(); err == nil {
		t.Fatal("second Start did not error")
	}
	dp.Stop()
	dp.Stop() // idempotent
	if err := dp.Start(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	c := h.client(0, 0, []string{"fb"})
	dec := c.Schedule(testJob("after-restart"))
	if dec.Err != nil || !dec.Handled {
		t.Fatalf("schedule after restart = %+v, want handled", dec)
	}
}

// TestRetransmitAfterPeerRecovery is the exchange reliability contract: a
// batch that fails to reach a down peer is retransmitted after the peer
// recovers, and the receiver's dedup prevents double counting.
func TestRetransmitAfterPeerRecovery(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 2, clock, testStatuses(50))
	dp0, dp1 := h.dps[0], h.dps[1]

	dp1.Stop()
	dp0.Engine().RecordDispatch(gruber.Dispatch{
		JobID: "j-down", Site: "site-000", Owner: "atlas", CPUs: 10,
		Runtime: time.Hour, At: clock.Now(),
	})
	dp0.ExchangeNow() // peer down: batch lost, cursor must not advance

	if err := dp1.Start(); err != nil {
		t.Fatalf("peer restart: %v", err)
	}
	dp0.ExchangeNow() // retransmit
	if got := dp1.Engine().EstFreeCPUs("site-000"); got != 40 {
		t.Fatalf("peer est after recovery = %d, want 40 (dispatch retransmitted once)", got)
	}
	dp0.ExchangeNow() // already acknowledged: nothing new, and no double count
	if got := dp1.Engine().EstFreeCPUs("site-000"); got != 40 {
		t.Fatalf("peer est after extra round = %d, want 40 (no double count)", got)
	}
	if dup := dp1.Engine().Stats().RemoteDispatches; dup != 1 {
		t.Fatalf("remote dispatches = %d, want 1", dup)
	}
}

// driveExchange runs one ExchangeNow under a Manual clock, advancing
// virtual time until the round completes, and returns how much virtual
// time the round consumed.
func driveExchange(t *testing.T, clock *vtime.Manual, dp *DecisionPoint) time.Duration {
	t.Helper()
	start := clock.Now()
	done := make(chan struct{})
	go func() {
		dp.ExchangeNow()
		close(done)
	}()
	for i := 0; i < 10000; i++ {
		select {
		case <-done:
			return clock.Now().Sub(start)
		default:
		}
		time.Sleep(time.Millisecond) // real pause: let sleepers register
		clock.Advance(time.Second)
	}
	t.Fatal("exchange round never completed")
	return 0
}

// TestDeadPeerBackoffStopsStallingRounds is the health tracker's
// acceptance test, on virtual time: a peer that blackholes traffic costs
// PeerTimeout per round only until it is declared dead; after that,
// rounds skip it until the probe backoff elapses.
func TestDeadPeerBackoffStopsStallingRounds(t *testing.T) {
	clock := vtime.NewManual(epoch)
	mem := wire.NewMem()
	network := netsim.New(1, netsim.Profile{})
	faults := netsim.NewFaultPlane()
	network.SetFaults(faults)
	const peerTimeout = 30 * time.Second
	const interval = 3 * time.Minute
	dp, err := New(Config{
		Name: "dp-0", Node: "node-0", Addr: "dp-0",
		Transport: mem, Network: network, Clock: clock,
		Profile: wire.Instant(), Strategy: UsageOnly,
		ExchangeInterval: interval, PeerTimeout: peerTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	dp.Engine().UpdateSites(testStatuses(50), clock.Now())
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()
	// The peer's node blackholes every message from the start: calls to it
	// see pure silence until the caller's deadline — the expensive failure.
	dp.AddPeer("dp-ghost", "node-ghost", "dp-ghost")
	faults.CrashNode("node-ghost", clock.Now(), clock.Now().Add(24*time.Hour))

	for round := 1; round <= deadAfterFails; round++ {
		if spent := driveExchange(t, clock, dp); spent < peerTimeout {
			t.Fatalf("round %d consumed %v, want >= PeerTimeout while the peer is not yet dead", round, spent)
		}
	}
	st := dp.Status()
	if len(st.Peers) != 1 || st.Peers[0].State != "dead" {
		t.Fatalf("peer health = %+v, want dead after %d failures", st.Peers, deadAfterFails)
	}
	// Dead now: the next round must skip the peer instead of paying
	// another PeerTimeout. driveExchange advances in 1s steps, so a
	// skipped round measures far under the timeout.
	if spent := driveExchange(t, clock, dp); spent >= peerTimeout/2 {
		t.Fatalf("round after death consumed %v; dead peer still stalling rounds", spent)
	}
}

// TestRebindClosedClientStaysClosed covers the resurrection bug: Rebind
// on a closed client must not build a fresh connection.
func TestRebindClosedClientStaysClosed(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 2, clock, testStatuses(50))
	c := h.client(0, 0, []string{"fb"})
	c.Close()
	before, _ := c.connAndBreaker()
	c.Rebind(h.dps[1].Name(), h.dps[1].Name(), h.dps[1].Addr())
	if after, _ := c.connAndBreaker(); after != before {
		t.Fatal("Rebind after Close replaced the connection (client resurrected)")
	}
	if c.DPName() != h.dps[0].Name() {
		t.Fatalf("DPName = %q after closed rebind, want original binding", c.DPName())
	}
	dec := c.Schedule(testJob("post-close"))
	if dec.Handled {
		t.Fatal("closed client still handled a job through a broker")
	}
}

// TestCloseCancelsRebindGrace covers the leaked-sleeper bug: Rebind defers
// closing the old connection by the client timeout, but Close must cut
// that short instead of leaving a goroutine sleeping out the grace period.
func TestCloseCancelsRebindGrace(t *testing.T) {
	clock := vtime.NewManual(epoch)
	mem := wire.NewMem()
	c, err := NewClient(ClientConfig{
		Name: "c", DPName: "dp-a", DPNode: "dp-a", DPAddr: "dp-a",
		Transport: mem, Clock: clock, Timeout: time.Hour,
		RNG: netsim.Stream(1, "grace"),
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Rebind("dp-b", "dp-b", "dp-b")
	c.mu.Lock()
	n := len(c.retiring)
	c.mu.Unlock()
	if n != 1 {
		t.Fatalf("retiring connections = %d, want 1 after Rebind", n)
	}
	c.Close()
	// Without any virtual-time advance the retiring connection must be
	// closed and forgotten: the grace sleeper was cancelled, not awaited.
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		n = len(c.retiring)
		c.mu.Unlock()
		if n == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("retiring connections = %d after Close; grace sleeper not cancelled", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestClientFailoverChain: after failoverThreshold consecutive failures
// the client rebinds to the next configured decision point and is handled
// again, instead of paying fallback on every job forever.
func TestClientFailoverChain(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 2, clock, testStatuses(50))
	c, err := NewClient(ClientConfig{
		Name: "c", Node: "c",
		DPName: h.dps[0].Name(), DPNode: h.dps[0].Name(), DPAddr: h.dps[0].Addr(),
		Transport: h.mem, Clock: clock, Timeout: 2 * time.Second,
		FallbackSites: []string{"fb"},
		RNG:           netsim.Stream(1, "failover"),
		Failover: []DPRef{
			{Name: h.dps[0].Name(), Node: h.dps[0].Name(), Addr: h.dps[0].Addr()},
			{Name: h.dps[1].Name(), Node: h.dps[1].Name(), Addr: h.dps[1].Addr()},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	h.dps[0].Stop() // the bound broker dies
	for i := 0; i < failoverThreshold; i++ {
		dec := c.Schedule(testJob(fmt.Sprintf("f%d", i)))
		if dec.Handled {
			t.Fatalf("job %d handled by a dead broker", i)
		}
		if dec.Site != "fb" {
			t.Fatalf("job %d site = %q, want static fallback while failing over", i, dec.Site)
		}
	}
	if got := c.DPName(); got != h.dps[1].Name() {
		t.Fatalf("client bound to %q after threshold failures, want %q", got, h.dps[1].Name())
	}
	dec := c.Schedule(testJob("recovered"))
	if !dec.Handled || dec.Err != nil {
		t.Fatalf("post-failover decision = %+v, want handled", dec)
	}
}

// chaosDigest is everything observable about one chaos scenario run: the
// ordered scheduling decisions and every broker's final per-site view.
type chaosDigest struct {
	Decisions []chaosDecision
	Views     map[string][]int // dp name -> EstFreeCPUs per site, in site order
	Handled   [2]int           // handled decisions pre-fault / post-heal
	Donors    []string         // snapshot donor per restarted dp, in dp order
}

type chaosDecision struct {
	JobID   string
	Site    string
	Handled bool
	BoundTo string
}

// runChaosScenario builds a 10-point mesh on a Manual clock, crashes 3
// brokers mid-run, fails their clients over, restarts the brokers with a
// snapshot resync, and returns a digest of every decision and final view.
// The whole scenario runs on one driving goroutine over virtual time, so
// two runs must produce identical digests.
func runChaosScenario(t *testing.T) chaosDigest {
	t.Helper()
	const nDP = 10
	clock := vtime.NewManual(epoch)
	mem := wire.NewMem()
	sites := testStatuses(100, 100, 100, 100)
	siteNames := make([]string, len(sites))
	for i, s := range sites {
		siteNames[i] = s.Name
	}

	dps := make([]*DecisionPoint, nDP)
	for i := 0; i < nDP; i++ {
		dp, err := New(Config{
			Name: fmt.Sprintf("dp-%d", i), Addr: fmt.Sprintf("dp-%d", i),
			Transport: mem, Clock: clock, Profile: wire.Instant(),
			Strategy:         UsageOnly,
			ExchangeInterval: 24 * time.Hour, // rounds driven by hand
			PeerTimeout:      30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		dp.Engine().UpdateSites(sites, clock.Now())
		dps[i] = dp
	}
	for _, dp := range dps {
		for _, peer := range dps {
			if peer != dp {
				dp.AddPeer(peer.Name(), peer.Name(), peer.Addr())
			}
		}
		if err := dp.Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, dp := range dps {
			dp.Stop()
		}
	})

	clients := make([]*Client, nDP)
	for i := 0; i < nDP; i++ {
		chain := make([]DPRef, 0, nDP-1)
		for k := 1; k < nDP; k++ {
			p := dps[(i+k)%nDP]
			chain = append(chain, DPRef{Name: p.Name(), Node: p.Name(), Addr: p.Addr()})
		}
		c, err := NewClient(ClientConfig{
			Name:   fmt.Sprintf("client-%d", i),
			DPName: dps[i].Name(), DPNode: dps[i].Name(), DPAddr: dps[i].Addr(),
			Transport: mem, Clock: clock, Timeout: 10 * time.Second,
			FallbackSites: siteNames,
			RNG:           netsim.Stream(99, fmt.Sprintf("chaos.client-%d", i)),
			Failover:      chain,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		clients[i] = c
	}

	var digest chaosDigest
	digest.Views = make(map[string][]int)
	jobSeq := 0
	scheduleWave := func(phase int) (handled int) {
		for _, c := range clients {
			jobSeq++
			id := fmt.Sprintf("job-%03d", jobSeq)
			dec := c.Schedule(&grid.Job{
				ID: grid.JobID(id), Owner: usla.MustParsePath("atlas"),
				CPUs: 2, Runtime: time.Hour, SubmitHost: c.cfg.Name,
			})
			if dec.Handled {
				handled++
			}
			digest.Decisions = append(digest.Decisions, chaosDecision{
				JobID: id, Site: dec.Site, Handled: dec.Handled, BoundTo: c.DPName(),
			})
		}
		return handled
	}
	exchangeAll := func() {
		for _, dp := range dps {
			dp.ExchangeNow()
		}
	}

	// Phase 1: healthy plateau — two waves, fully exchanged.
	pre := scheduleWave(1)
	clock.Advance(time.Second)
	pre += scheduleWave(1)
	exchangeAll()
	digest.Handled[0] = pre

	// Phase 2: the fault plane's schedule picks 3 distinct victims.
	crashSched := netsim.RandomCrashes(7, "chaos", []string{
		"dp-1", "dp-3", "dp-4", "dp-6", "dp-7",
	}, 3, 0, time.Minute, time.Minute, 2*time.Minute)
	crashed := make([]int, 0, 3)
	for _, cr := range crashSched {
		var idx int
		fmt.Sscanf(cr.Node, "dp-%d", &idx)
		crashed = append(crashed, idx)
		dps[idx].Crash()
	}
	clock.Advance(time.Second)

	// Clients whose broker died fail over after failoverThreshold refused
	// calls; one wave more lets every affected client land on a live
	// broker.
	for w := 0; w < failoverThreshold+1; w++ {
		scheduleWave(2)
		clock.Advance(time.Second)
	}
	// Survivors keep exchanging; links to the dead accumulate failures.
	for r := 0; r < 3; r++ {
		exchangeAll()
		clock.Advance(time.Second)
	}

	// Phase 3: heal — restart each crashed broker with a snapshot resync.
	for _, idx := range crashed {
		if err := dps[idx].Restart(); err != nil {
			t.Fatalf("restart %s: %v", dps[idx].Name(), err)
		}
		// Record the donor deterministically: re-running the pull is
		// idempotent (JobID dedup) and returns the same first-alive peer.
		_, donor := dps[idx].ResyncFromPeers()
		digest.Donors = append(digest.Donors, donor)
	}
	clock.Advance(time.Second)
	post := scheduleWave(3)
	exchangeAll()
	exchangeAll() // second round: restarted brokers' new records flood out
	digest.Handled[1] = post

	for _, dp := range dps {
		view := make([]int, len(siteNames))
		for si, s := range siteNames {
			view[si] = dp.Engine().EstFreeCPUs(s)
		}
		digest.Views[dp.Name()] = view
	}
	return digest
}

// TestChaosCrashRecoveryDeterministic is the tentpole's acceptance test:
// 10 brokers, 3 crashed and healed mid-run. It asserts (a) clients fail
// over and post-heal handled throughput recovers to at least 90% of the
// pre-fault level, (b) restarted brokers converge to the survivors' usage
// views via the snapshot path, and (c) the entire scenario is bit-for-bit
// replayable: a second run yields an identical digest.
func TestChaosCrashRecoveryDeterministic(t *testing.T) {
	first := runChaosScenario(t)

	// (a) throughput recovery: phase 1 and phase 3 are one wave-pair and
	// one wave respectively, so compare handled fractions.
	preFrac := float64(first.Handled[0]) / 20.0
	postFrac := float64(first.Handled[1]) / 10.0
	if preFrac < 1.0 {
		t.Fatalf("pre-fault handled fraction = %v, want 1.0 on a healthy mesh", preFrac)
	}
	if postFrac < 0.9*preFrac {
		t.Fatalf("post-heal handled fraction %v < 90%% of pre-fault %v", postFrac, preFrac)
	}

	// (b) convergence: every broker ends with the same per-site view.
	ref := first.Views["dp-0"]
	for name, view := range first.Views {
		if !reflect.DeepEqual(view, ref) {
			t.Fatalf("%s view %v diverges from dp-0 view %v", name, view, ref)
		}
	}
	for _, donor := range first.Donors {
		if donor == "" {
			t.Fatal("a restarted broker found no snapshot donor")
		}
	}

	// (c) replay: same seeds, same virtual schedule, same digest.
	second := runChaosScenario(t)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("two runs of the same seeded chaos scenario produced different digests")
	}
}

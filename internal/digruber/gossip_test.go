package digruber

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"digruber/internal/grid"
	"digruber/internal/gruber"
	"digruber/internal/vtime"
	"digruber/internal/wire"
)

// newGossipHarness is newHarnessStrategy for the Gossip strategy: n
// decision points, fully peer-wired (the view caps and samples
// internally), exchange driven manually via ExchangeNow.
func newGossipHarness(t *testing.T, n int, clock vtime.Clock, statuses []grid.Status, gcfg GossipConfig) *harness {
	t.Helper()
	h := &harness{t: t, mem: wire.NewMem(), clock: clock}
	for i := 0; i < n; i++ {
		dp, err := New(Config{
			Name:             fmt.Sprintf("dp-%d", i),
			Addr:             fmt.Sprintf("dp-%d", i),
			Transport:        h.mem,
			Clock:            clock,
			Profile:          wire.Instant(),
			Strategy:         Gossip,
			Gossip:           gcfg,
			ExchangeInterval: time.Hour,
			// Real-clock tests: a call wedged by churn (accepted just as
			// the server dies) must not wait out the 30s default.
			PeerTimeout: time.Second,
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

// gossipRound runs one gossip round on every decision point, in order.
func gossipRound(h *harness) {
	for _, dp := range h.dps {
		dp.ExchangeNow()
	}
}

func dispatchAt(h *harness, dp int, id string) {
	h.dps[dp].Engine().RecordDispatch(gruber.Dispatch{
		JobID: id, Site: "site-000", Owner: "atlas", CPUs: 2,
		Runtime: 2 * time.Hour, At: h.clock.Now(),
	})
}

// TestGossipConvergesWithSparseFanout: with fanout 2 in a 12-point
// fleet, one point's dispatch reaches every other point within a few
// rounds — which requires transitive relay, since a round only contacts
// two sampled peers directly.
func TestGossipConvergesWithSparseFanout(t *testing.T) {
	clock := vtime.NewReal()
	h := newGossipHarness(t, 12, clock, testStatuses(50, 80), GossipConfig{Fanout: 2, Seed: 11})
	dispatchAt(h, 0, "g1")

	converged := func() bool {
		for i, dp := range h.dps {
			if i != 0 && dp.Engine().Stats().RemoteDispatches == 0 {
				return false
			}
		}
		return true
	}
	rounds := 0
	for ; rounds < 12 && !converged(); rounds++ {
		gossipRound(h)
	}
	if !converged() {
		t.Fatal("dispatch did not reach every decision point in 12 rounds at fanout 2")
	}
	t.Logf("converged in %d rounds", rounds)

	// Relay must actually be happening: at fanout 2 of 11 peers, most
	// points can only have heard the news third-hand.
	relayed := 0
	for _, dp := range h.dps {
		dp.mu.Lock()
		relayed += dp.gossipRelayed
		dp.mu.Unlock()
	}
	if relayed == 0 {
		t.Fatal("no third-party records relayed; gossip degenerated to direct flooding")
	}
}

// TestGossipPullRecoversLateJoiner: a point that missed earlier traffic
// pulls it back through the reply half of its own push-pull round, even
// from a peer that never pushes to it.
func TestGossipPullRecoversLateJoiner(t *testing.T) {
	clock := vtime.NewReal()
	h := newGossipHarness(t, 3, clock, testStatuses(50), GossipConfig{Fanout: 2, Seed: 3})
	// dp-0 records while dp-2 is stopped.
	h.dps[2].Stop()
	dispatchAt(h, 0, "early-1")
	dispatchAt(h, 0, "early-2")
	gossipRound(h)
	if err := h.dps[2].Start(); err != nil {
		t.Fatal(err)
	}
	// dp-2's own round: its digest lacks dp-0's origin, so whichever
	// peers it samples reply with the missing records.
	h.dps[2].ExchangeNow()
	if got := h.dps[2].Engine().Stats().RemoteDispatches; got != 2 {
		t.Fatalf("late joiner pulled %d records, want 2", got)
	}
}

// TestGossipDrainFlushCompletes: the drain protocol's verified flush
// works under gossip — the force round contacts every peer and the
// reply digests' self-origin entries prove the full own log is held
// fleet-wide.
func TestGossipDrainFlushCompletes(t *testing.T) {
	clock := vtime.NewReal()
	h := newGossipHarness(t, 5, clock, testStatuses(50), GossipConfig{Fanout: 1, Seed: 5})
	for i := 0; i < 4; i++ {
		dispatchAt(h, 0, fmt.Sprintf("d%d", i))
	}
	// Fanout 1: a plain round cannot reach all four peers, so the drain
	// flush's all-peers force mode is what must complete the hand-off.
	if err := h.dps[0].Drain(time.Minute); err != nil {
		t.Fatal(err)
	}
	if st := lifecycleState(h.dps[0]); st != StateStopped {
		t.Fatalf("drained point in state %s, want stopped", st)
	}
	for _, dp := range h.dps[1:] {
		if got := dp.Engine().Stats().RemoteDispatches; got != 4 {
			t.Fatalf("%s holds %d of dp-0's records after drain, want 4", dp.Name(), got)
		}
	}
}

// TestGossipDrainPastRecordsThatExpiredUnsent: dp-1 holds dp-0's first
// two records, then is down while dp-0 records six more that expire
// before it comes back. dp-0's own log sheds them, so no round can push
// dp-1 a record and its digest stays at 2; the drain's flush still
// completes, because all dp-1 lacks has expired.
func TestGossipDrainPastRecordsThatExpiredUnsent(t *testing.T) {
	clock := vtime.NewManual(epoch)
	h := newGossipHarness(t, 2, clock, testStatuses(50), GossipConfig{Fanout: 1, Seed: 5})
	dispatchAt(h, 0, "held-1")
	dispatchAt(h, 0, "held-2")
	h.dps[0].ExchangeNow()
	h.dps[1].Stop()
	for i := 0; i < 6; i++ {
		if err := h.dps[0].Engine().RecordDispatch(gruber.Dispatch{
			JobID: fmt.Sprintf("short-%d", i), Site: "site-000", Owner: "atlas", CPUs: 1,
			Runtime: time.Minute, At: clock.Now(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(2 * time.Minute)
	h.dps[0].ExchangeNow()
	if recs, hi := h.dps[0].Engine().LocalDispatchesAfter(0); len(recs) != 0 || hi != 8 {
		t.Fatalf("own log holds %d records, high-water %d; want 0, 8", len(recs), hi)
	}
	if err := h.dps[1].Start(); err != nil {
		t.Fatal(err)
	}

	// Drain sleeps on the clock between flush retries; walk it forward
	// until the drain retires the point or its deadline aborts it.
	done := make(chan error, 1)
	go func() { done <- h.dps[0].Drain(time.Minute) }()
	var err error
	for waiting := true; waiting; {
		select {
		case err = <-done:
			waiting = false
		case <-time.After(time.Millisecond):
			clock.Advance(time.Second)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if got := h.dps[1].Engine().Stats().RemoteDispatches; got != 2 {
		t.Fatalf("dp-1 holds %d of dp-0's records, want the 2 that lived", got)
	}
}

// TestGossipMembershipPropagates: a joiner wired to a single seed peer
// becomes known fleet-wide through the Members piggyback, with no
// central registry.
func TestGossipMembershipPropagates(t *testing.T) {
	clock := vtime.NewReal()
	h := newGossipHarness(t, 4, clock, testStatuses(50), GossipConfig{Fanout: 2, Seed: 9})
	joiner, err := New(Config{
		Name: "dp-9", Addr: "dp-9", Transport: h.mem, Clock: clock,
		Profile: wire.Instant(), Strategy: Gossip,
		Gossip:           GossipConfig{Fanout: 2, Seed: 9},
		ExchangeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	joiner.Engine().UpdateSites(testStatuses(50), clock.Now())
	if err := joiner.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(joiner.Stop)
	joiner.AddPeer(h.dps[0].Name(), h.dps[0].Name(), h.dps[0].Addr()) // one seed

	fleetKnows := func() bool {
		for _, dp := range h.dps {
			found := false
			for _, p := range dp.Peers() {
				if p == "dp-9" {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return len(joiner.Peers()) == len(h.dps)
	}
	for i := 0; i < 20 && !fleetKnows(); i++ {
		joiner.ExchangeNow()
		gossipRound(h)
	}
	if !fleetKnows() {
		t.Fatal("joiner not fleet-wide known after 20 rounds of Members piggybacking")
	}
}

// TestGossipCompactsAckedRecords: once every peer's reply digest covers
// an origin, the origin's log compacts to nothing while its version
// vector keeps the floor.
func TestGossipCompactsAckedRecords(t *testing.T) {
	clock := vtime.NewReal()
	h := newGossipHarness(t, 3, clock, testStatuses(50), GossipConfig{Fanout: 2, Seed: 7})
	dispatchAt(h, 0, "c1")
	dispatchAt(h, 0, "c2")
	// Fanout 2 covers both peers: one round gathers both acks, the
	// round's own compaction pass then drops the acked prefix.
	h.dps[0].ExchangeNow()
	e := h.dps[0].Engine()
	if held := e.DispatchesSince(nil, 0); len(held) != 0 {
		t.Fatalf("logs hold %d records after fleet-wide ack, want 0", len(held))
	}
	if hi := e.LocalSeqHighWater(); hi != 2 {
		t.Fatalf("high-water mark %d after compaction, want 2", hi)
	}
}

// TestGossipSampledPeersDeterministic: the same seed draws the same
// peers round for round, so a replayed run gossips identically.
func TestGossipSampledPeersDeterministic(t *testing.T) {
	run := func() []int {
		clock := vtime.NewReal()
		h := newGossipHarness(t, 8, clock, testStatuses(50), GossipConfig{Fanout: 2, Seed: 42})
		dispatchAt(h, 0, "det-1")
		var counts []int
		for r := 0; r < 4; r++ {
			gossipRound(h)
			total := 0
			for _, dp := range h.dps {
				total += int(dp.Engine().Stats().RemoteDispatches)
			}
			counts = append(counts, total)
		}
		return counts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at round %d: %v vs %v", i, a, b)
		}
	}
}

// TestGossipStressChurn hammers concurrent gossip rounds against
// membership churn and crash/restart — the race-detector companion to
// the full-mesh MembershipChurn stress.
func TestGossipStressChurn(t *testing.T) {
	clock := vtime.NewReal()
	h := newGossipHarness(t, 6, clock, testStatuses(50, 50), GossipConfig{Fanout: 2, Seed: 13})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Dispatch feeders on two points.
	for _, i := range []int{0, 1} {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				dispatchAt(h, i, fmt.Sprintf("churn-%d-%d", i, n))
				h.dps[i].ExchangeNow()
				time.Sleep(time.Millisecond)
			}
		}()
	}
	// Concurrent rounds everywhere else.
	for _, dp := range h.dps[2:] {
		dp := dp
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				dp.ExchangeNow()
				time.Sleep(time.Millisecond)
			}
		}()
	}
	// Churn: dp-5 crashes, restarts, and is removed/re-added at dp-0.
	for i := 0; i < 5; i++ {
		h.dps[5].Crash()
		h.dps[0].RemovePeer("dp-5")
		if err := h.dps[5].Restart(); err != nil {
			t.Fatal(err)
		}
		h.dps[0].AddPeer("dp-5", "dp-5", h.dps[5].Addr())
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
}

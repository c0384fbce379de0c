package digruber

import (
	"fmt"
	"testing"
	"time"

	"digruber/internal/gruber"
	"digruber/internal/netsim"
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

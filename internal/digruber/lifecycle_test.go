package digruber

import (
	"errors"
	"strings"
	"testing"
	"time"

	"digruber/internal/netsim"
	"digruber/internal/vtime"
	"digruber/internal/wire"
)

// lifecycleState names the decision point's current lifecycle state:
// StateServing, StateDraining or StateStopped.
func lifecycleState(dp *DecisionPoint) string {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	switch {
	case !dp.started:
		return StateStopped
	case dp.draining:
		return StateDraining
	default:
		return StateServing
	}
}

// waitState polls (real time — the lifecycle transitions are driven by a
// concurrent Drain) until the decision point reports the wanted state.
func waitState(t *testing.T, dp *DecisionPoint, want string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for lifecycleState(dp) != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached state %q (now %q)", dp.Name(), want, lifecycleState(dp))
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDrainCompletesAndFlushesToPeers(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 2, clock, testStatuses(50, 80, 10))
	c := h.client(0, 0, nil)

	// Give dp-0 local dispatch records that dp-1 has never seen.
	for _, id := range []string{"j1", "j2", "j3"} {
		if dec := c.Schedule(testJob(id)); dec.Err != nil || !dec.Handled {
			t.Fatalf("schedule %s: %+v", id, dec)
		}
	}
	if h.dps[1].Engine().Stats().RemoteDispatches != 0 {
		t.Fatal("dp-1 saw dispatches before any exchange")
	}

	if err := h.dps[0].Drain(5 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := lifecycleState(h.dps[0]); st != StateStopped {
		t.Fatalf("state after drain = %q, want stopped", st)
	}
	// The final flush must have delivered every local record.
	if got := h.dps[1].Engine().Stats().RemoteDispatches; got != 3 {
		t.Fatalf("dp-1 remote dispatches after drain = %d, want 3", got)
	}
}

func TestDrainWithoutPeersStops(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 1, clock, testStatuses(50))
	c := h.client(0, 0, nil)
	if dec := c.Schedule(testJob("solo")); dec.Err != nil {
		t.Fatal(dec.Err)
	}
	// No peer will ever ask for the log; the flush is vacuously complete.
	if err := h.dps[0].Drain(2 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := lifecycleState(h.dps[0]); st != StateStopped {
		t.Fatalf("state = %q, want stopped", st)
	}
}

func TestDrainLifecycleErrors(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 1, clock, testStatuses(50))
	h.dps[0].Stop()
	if err := h.dps[0].Drain(time.Second); err == nil {
		t.Fatal("drain of a stopped point must error")
	}
	if err := h.dps[0].Start(); err != nil {
		t.Fatal(err)
	}
	if st := lifecycleState(h.dps[0]); st != StateServing {
		t.Fatalf("state after restart = %q, want serving", st)
	}
}

// A drain that cannot discharge its flush obligation (here: a peer that
// never answers) must refuse new work while it tries, then abort back to
// serving — never strand the point half-dead.
func TestDrainAbortsBackToServingOnUnreachablePeer(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 2, clock, testStatuses(50, 80))
	c := h.client(0, 0, nil)

	// One local record, and a ghost peer that will never acknowledge it.
	if dec := c.Schedule(testJob("j1")); dec.Err != nil || !dec.Handled {
		t.Fatalf("schedule: %+v", dec)
	}
	h.dps[0].AddPeer("ghost", "ghost", "ghost-addr")

	drainErr := make(chan error, 1)
	go func() { drainErr <- h.dps[0].Drain(1500 * time.Millisecond) }()
	waitState(t, h.dps[0], StateDraining)

	// While draining: Status advertises it, and new work is refused with
	// the retryable sentinel.
	if st := h.dps[0].Status(); st.State != StateDraining {
		t.Fatalf("Status.State = %q, want draining", st.State)
	}
	cli := wire.NewClient(wire.ClientConfig{
		Node: "probe", ServerNode: h.dps[0].Name(), Addr: h.dps[0].Addr(),
		Transport: h.mem, Clock: clock,
	})
	defer cli.Close()
	_, err := wire.Call[QueryArgs, QueryReply](cli, MethodQuery, QueryArgs{Owner: "atlas", CPUs: 1}, time.Second)
	if !errors.Is(err, wire.ErrDraining) {
		t.Fatalf("query during drain: err = %v, want ErrDraining", err)
	}

	err = <-drainErr
	if err == nil || !strings.Contains(err.Error(), "drain aborted") {
		t.Fatalf("drain err = %v, want abort", err)
	}
	if st := lifecycleState(h.dps[0]); st != StateServing {
		t.Fatalf("state after abort = %q, want serving", st)
	}
	// Back in service: queries answer again.
	if _, err := wire.Call[QueryArgs, QueryReply](cli, MethodQuery, QueryArgs{Owner: "atlas", CPUs: 1}, time.Second); err != nil {
		t.Fatalf("query after abort: %v", err)
	}
}

// The client side of the protocol: a draining refusal triggers an
// immediate failover rebind and a same-call re-issue, so the job is
// handled by a peer instead of degrading to random fallback.
func TestClientFailsOverOnDraining(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 2, clock, testStatuses(50, 80, 10))
	c, err := NewClient(ClientConfig{
		Name: "c", Node: "c",
		DPName: h.dps[0].Name(), DPNode: h.dps[0].Name(), DPAddr: h.dps[0].Addr(),
		Transport: h.mem, Clock: clock, Timeout: 2 * time.Second,
		FallbackSites: []string{"fb"},
		RNG:           netsim.Stream(1, "drain-failover"),
		Failover: []DPRef{
			{Name: h.dps[0].Name(), Node: h.dps[0].Name(), Addr: h.dps[0].Addr()},
			{Name: h.dps[1].Name(), Node: h.dps[1].Name(), Addr: h.dps[1].Addr()},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	// Wedge dp-0 in Draining: one unacknowledged record + a ghost peer.
	if dec := c.Schedule(testJob("j0")); dec.Err != nil {
		t.Fatal(dec.Err)
	}
	h.dps[0].AddPeer("ghost", "ghost", "ghost-addr")
	drainErr := make(chan error, 1)
	go func() { drainErr <- h.dps[0].Drain(3 * time.Second) }()
	waitState(t, h.dps[0], StateDraining)

	dec := c.Schedule(testJob("failover-job"))
	if dec.Err != nil {
		t.Fatal(dec.Err)
	}
	if !dec.Handled {
		t.Fatal("job hit random fallback; want drain-aware failover to a live peer")
	}
	if got := c.DPName(); got != h.dps[1].Name() {
		t.Fatalf("client bound to %s after draining refusal, want %s", got, h.dps[1].Name())
	}
	// dp-1 did the work.
	if h.dps[1].Engine().Stats().LocalDispatches == 0 {
		t.Fatal("dp-1 never recorded the failed-over dispatch")
	}
	<-drainErr
}

func TestRemovePeerTearsDownLink(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 3, clock, testStatuses(50, 80))

	h.dps[0].RemovePeer("dp-1")
	if got := h.dps[0].Peers(); len(got) != 1 || got[0] != "dp-2" {
		t.Fatalf("peers after remove = %v, want [dp-2]", got)
	}
	// Idempotent; unknown names are no-ops.
	h.dps[0].RemovePeer("dp-1")
	h.dps[0].RemovePeer("never-existed")

	// Health reporting follows the peer set.
	st := h.dps[0].Status()
	if len(st.Peers) != 1 || st.Peers[0].Name != "dp-2" {
		t.Fatalf("status peers = %+v", st.Peers)
	}

	// Exchange still works with the survivor and ignores the removed one.
	c := h.client(0, 0, nil)
	if dec := c.Schedule(testJob("after-remove")); dec.Err != nil {
		t.Fatal(dec.Err)
	}
	h.dps[0].ExchangeNow()
	if h.dps[2].Engine().Stats().RemoteDispatches != 1 {
		t.Fatal("surviving peer missed the exchange")
	}
	if h.dps[1].Engine().Stats().RemoteDispatches != 0 {
		t.Fatal("removed peer still receives exchanges")
	}
}

// StatusReply.State crosses the wire: serving encodes as empty (and so
// stays byte-identical to pre-lifecycle builds — asserted in the compat
// tests), draining as the label.
func TestStatusStateOverWire(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 1, clock, testStatuses(50))
	cli := wire.NewClient(wire.ClientConfig{
		Node: "probe", ServerNode: h.dps[0].Name(), Addr: h.dps[0].Addr(),
		Transport: h.mem, Clock: clock,
	})
	defer cli.Close()
	st, err := wire.Call[StatusArgs, StatusReply](cli, MethodStatus, StatusArgs{}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "" {
		t.Fatalf("serving State = %q, want empty", st.State)
	}
}

package wire

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"digruber/internal/vtime"
)

var overloadEpoch = time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)

// waitUntil polls cond on real time (the conditions observe goroutine
// progress, not virtual time).
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExpiredRequestNeverInvokesHandler is the stale-work guarantee: a
// request whose propagated deadline passes while it waits in the accept
// queue is dropped at dequeue — the handler never runs, no service time
// is charged, and the drop lands in the dedicated Expired stat rather
// than Completed or Failed.
func TestExpiredRequestNeverInvokesHandler(t *testing.T) {
	clock := vtime.NewReal()
	mem := NewMem()
	srv := NewServer("server-node", StackProfile{Name: "one", MaxConcurrent: 1}, clock)
	l, err := mem.Listen("dp-0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close(); l.Close() })
	cli := NewClient(ClientConfig{
		Node: "client-node", ServerNode: "server-node", Addr: "dp-0",
		Transport: mem, Clock: clock, PropagateDeadline: true,
	})
	t.Cleanup(cli.Close)

	release := make(chan struct{})
	Handle(srv, "slow", func(r echoReq) (echoResp, error) { <-release; return echoResp{}, nil })
	var fastCalls atomic.Int64
	Handle(srv, "fast", func(r echoReq) (echoResp, error) { fastCalls.Add(1); return echoResp{}, nil })

	// Occupy the single worker, so the next request has to queue.
	slowDone := make(chan struct{})
	go func() {
		defer close(slowDone)
		if _, err := Call[echoReq, echoResp](cli, "slow", echoReq{}, time.Minute); err != nil {
			t.Errorf("slow call: %v", err)
		}
	}()
	waitUntil(t, "slow call in flight", func() bool { return srv.Stats().InFlight == 1 })

	// This request queues behind the blocked worker and its 30 ms
	// deadline passes before the worker frees; the caller sees its own
	// timeout, the server must see stale work.
	if _, err := Call[echoReq, echoResp](cli, "fast", echoReq{}, 30*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("queued call err = %v, want %v", err, ErrTimeout)
	}
	close(release)
	<-slowDone

	waitUntil(t, "expired drop", func() bool { return srv.Stats().Expired == 1 })
	if n := fastCalls.Load(); n != 0 {
		t.Fatalf("expired request invoked the handler %d time(s)", n)
	}
	st := srv.Stats()
	if completed := srv.completed.Load(); completed != 1 || st.Received != completed+st.Expired {
		t.Fatalf("stats = %+v, want exactly the slow call completed and the expired one uncounted", st)
	}
}

// TestRetryBudgetTokenBucket pins the budget's vtime semantics: spend to
// empty, refill by elapsed virtual seconds, cap at burst.
func TestRetryBudgetTokenBucket(t *testing.T) {
	clock := vtime.NewManual(overloadEpoch)
	b := NewRetryBudget(clock, 1, 2)
	if !b.Allow() || !b.Allow() {
		t.Fatal("full bucket denied a retry")
	}
	if b.Allow() {
		t.Fatal("empty bucket allowed a retry")
	}
	clock.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("no refill after 1s at rate 1/s")
	}
	// A long idle stretch refills only to the burst cap.
	clock.Advance(time.Hour)
	if !b.Allow() || !b.Allow() {
		t.Fatal("bucket under burst cap after long idle")
	}
	if b.Allow() {
		t.Fatal("burst cap not enforced")
	}
	var nilB *RetryBudget
	if !nilB.Allow() {
		t.Fatal("nil budget must allow everything")
	}
}

// TestBreakerStateMachine walks the full closed → open → half-open
// cycle on a manual clock, checking that only Allow advances time-based
// transitions and that application-level errors reset the streak.
func TestBreakerStateMachine(t *testing.T) {
	clock := vtime.NewManual(overloadEpoch)
	var trans []string
	b := NewBreaker(BreakerConfig{
		Clock: clock, Threshold: 2, Cooldown: 10 * time.Second,
		OnTransition: func(from, to BreakerState) { trans = append(trans, from.String()+">"+to.String()) },
	})

	// Application errors come from a live server: they reset the streak.
	b.Record(ErrOverloaded)
	b.Record(errors.New("USLA violation"))
	b.Record(ErrOverloaded)
	if b.State() != BreakerClosed {
		t.Fatalf("state after interleaved app error = %v, want closed", b.State())
	}
	b.Record(ErrConnLost) // second consecutive transport failure: trip
	if b.State() != BreakerOpen || b.Allow() {
		t.Fatalf("breaker not open after threshold (state %v)", b.State())
	}
	clock.Advance(9 * time.Second)
	if b.Allow() {
		t.Fatal("open breaker allowed before cooldown")
	}
	clock.Advance(time.Second)
	if !b.Allow() {
		t.Fatal("cooldown elapsed but probe denied")
	}
	if b.State() != BreakerHalfOpen || b.Allow() {
		t.Fatal("half-open must admit exactly one probe")
	}
	b.Record(nil)
	if b.State() != BreakerClosed {
		t.Fatalf("probe success left state %v", b.State())
	}

	// Trip again; this time the probe fails and the cooldown restarts.
	b.Record(ErrTimeout)
	b.Record(ErrTimeout)
	clock.Advance(10 * time.Second)
	if !b.Allow() {
		t.Fatal("second cooldown probe denied")
	}
	b.Record(ErrTimeout)
	if b.State() != BreakerOpen {
		t.Fatalf("failed probe left state %v", b.State())
	}

	want := []string{"closed>open", "open>half-open", "half-open>closed",
		"closed>open", "open>half-open", "half-open>open"}
	if len(trans) != len(want) {
		t.Fatalf("transitions = %v, want %v", trans, want)
	}
	for i := range want {
		if trans[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", trans, want)
		}
	}

	var nilB *Breaker
	if !nilB.Allow() || nilB.State() != BreakerClosed {
		t.Fatal("nil breaker must allow everything")
	}
	nilB.Record(ErrTimeout)
}

// TestRetryBudgetGatesClientRetries: a client whose policy carries an
// exhausted budget stops retrying immediately and surfaces the original
// failure, counting the denial.
func TestRetryBudgetGatesClientRetries(t *testing.T) {
	clock := vtime.NewManual(overloadEpoch)
	metrics := NewClientMetrics()
	// No listener at the address: every attempt fast-fails with
	// FailureRefused (retryable). Burst 1, negligible refill: exactly one
	// retry may spend a token.
	cli := NewClient(ClientConfig{
		Node: "client-node", ServerNode: "server-node", Addr: "nowhere",
		Transport: NewMem(), Clock: clock, Metrics: metrics,
		Retry: RetryPolicy{Attempts: 4, Budget: NewRetryBudget(clock, 1e-9, 1)},
	})
	t.Cleanup(cli.Close)
	_, err := Call[echoReq, echoResp](cli, "echo", echoReq{}, time.Minute)
	if Classify(err) != FailureRefused {
		t.Fatalf("err = %v, want refused", err)
	}
	st := metrics.Stats()
	if st.Calls != 1 || st.Attempts != 2 || st.Throttled != 1 {
		t.Fatalf("stats = %+v, want 1 call, 2 attempts, 1 retry, 1 throttle", st)
	}
}

// TestReserveLaneIsolation: with every shared worker wedged by client
// traffic, a request on a lane-reserved method still completes — the
// mesh keeps converging while the container drowns.
func TestReserveLaneIsolation(t *testing.T) {
	clock := vtime.NewReal()
	mem := NewMem()
	srv := NewServer("server-node", StackProfile{Name: "one", MaxConcurrent: 1}, clock)
	srv.ReserveLane(1, 4, "mesh")
	l, err := mem.Listen("dp-0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close(); l.Close() })
	cli := NewClient(ClientConfig{
		Node: "client-node", ServerNode: "server-node", Addr: "dp-0",
		Transport: mem, Clock: clock,
	})
	t.Cleanup(cli.Close)

	release := make(chan struct{})
	Handle(srv, "busy", func(r echoReq) (echoResp, error) { <-release; return echoResp{}, nil })
	Handle(srv, "mesh", func(r echoReq) (echoResp, error) { return echoResp{Msg: "synced"}, nil })

	busyDone := make(chan struct{})
	go func() {
		defer close(busyDone)
		_, _ = Call[echoReq, echoResp](cli, "busy", echoReq{}, time.Minute)
	}()
	waitUntil(t, "busy call in flight", func() bool { return srv.Stats().InFlight == 1 })

	resp, err := Call[echoReq, echoResp](cli, "mesh", echoReq{}, 2*time.Second)
	if err != nil {
		t.Fatalf("lane call failed behind a saturated worker pool: %v", err)
	}
	if resp.Msg != "synced" {
		t.Fatalf("lane reply = %q", resp.Msg)
	}
	close(release)
	<-busyDone
}

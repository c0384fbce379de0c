package wire

import (
	"errors"
	"fmt"
	"io"
	"testing"
	"time"

	"digruber/internal/netsim"
	"digruber/internal/trace"
	"digruber/internal/vtime"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want FailureClass
	}{
		{nil, FailureNone},
		{ErrTimeout, FailureTimeout},
		{fmt.Errorf("wrap: %w", ErrTimeout), FailureTimeout},
		{ErrConnLost, FailureLost},
		{fmt.Errorf("%w: send: EOF", ErrConnLost), FailureLost},
		{ErrRefused, FailureRefused},
		{fmt.Errorf("%w: dial dp-0: no listener", ErrRefused), FailureRefused},
		{ErrOverloaded, FailureOverload},
		{ErrClosed, FailureClosed},
		{errors.New("USLA violation"), FailureOther},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestReconnectAfterConnDrop kills the underlying connection while a
// call is pending: the pending call must fail with the connection-lost
// class, and the very next call must lazily re-dial and succeed.
func TestReconnectAfterConnDrop(t *testing.T) {
	mem := NewMem()
	clock := vtime.NewReal()
	gate := make(chan struct{})
	defer close(gate)

	srv1 := NewServer("server-node", Instant(), clock)
	Handle(srv1, "block", func(r echoReq) (echoResp, error) {
		<-gate
		return echoResp(r), nil
	})
	l1, err := mem.Listen("dp-0")
	if err != nil {
		t.Fatal(err)
	}
	go srv1.Serve(l1)

	cli := NewClient(ClientConfig{
		Node: "client-node", ServerNode: "server-node",
		Addr: "dp-0", Transport: mem, Clock: clock,
	})
	defer cli.Close()

	pending := make(chan error, 1)
	go func() {
		_, err := Call[echoReq, echoResp](cli, "block", echoReq{Msg: "stuck"}, 30*time.Second)
		pending <- err
	}()
	// Wait until the server has the request in hand, then sever every
	// connection, as a crashing container would.
	waitForCond(t, func() bool { return srv1.Stats().Received >= 1 })
	srv1.Close()
	l1.Close()

	select {
	case err := <-pending:
		if !errors.Is(err, ErrConnLost) {
			t.Fatalf("pending call err = %v (class %v), want ErrConnLost", err, Classify(err))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending call did not fail after the connection died")
	}

	// A replacement binds the same address; the next call re-dials.
	srv2 := NewServer("server-node", Instant(), clock)
	Handle(srv2, "echo", func(r echoReq) (echoResp, error) { return echoResp(r), nil })
	l2, err := mem.Listen("dp-0")
	if err != nil {
		t.Fatal(err)
	}
	go srv2.Serve(l2)
	defer func() { srv2.Close(); l2.Close() }()

	resp, err := Call[echoReq, echoResp](cli, "echo", echoReq{Msg: "back"}, 5*time.Second)
	if err != nil {
		t.Fatalf("call after reconnect: %v", err)
	}
	if resp.Msg != "back" {
		t.Fatalf("resp = %q", resp.Msg)
	}
}

func TestDialFailureIsRefused(t *testing.T) {
	mem := NewMem()
	cli := NewClient(ClientConfig{Node: "a", ServerNode: "b", Addr: "nowhere", Transport: mem, Clock: vtime.NewReal()})
	defer cli.Close()
	_, err := Call[echoReq, echoResp](cli, "echo", echoReq{}, time.Second)
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v (class %v), want ErrRefused", err, Classify(err))
	}
}

// flakyTransport fails the first n dials, then delegates.
type flakyTransport struct {
	inner Transport
	fails int
	dials int
}

func (f *flakyTransport) Listen(addr string) (Listener, error) { return f.inner.Listen(addr) }
func (f *flakyTransport) Dial(addr string) (Conn, error) {
	f.dials++
	if f.dials <= f.fails {
		return nil, errors.New("transient dial failure")
	}
	return f.inner.Dial(addr)
}

func TestRetryRecoversFromRefused(t *testing.T) {
	mem := NewMem()
	clock := vtime.NewReal()
	srv := NewServer("server-node", Instant(), clock)
	Handle(srv, "echo", func(r echoReq) (echoResp, error) { return echoResp(r), nil })
	l, err := mem.Listen("dp-0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer func() { srv.Close(); l.Close() }()

	flaky := &flakyTransport{inner: mem, fails: 2}
	cli := NewClient(ClientConfig{
		Node: "c", ServerNode: "server-node", Addr: "dp-0",
		Transport: flaky, Clock: clock,
		Retry: RetryPolicy{
			Attempts:    3,
			BaseBackoff: time.Millisecond,
			JitterFrac:  0.5,
			Jitter:      netsim.Stream(1, "test.retry"),
		},
	})
	defer cli.Close()
	resp, err := Call[echoReq, echoResp](cli, "echo", echoReq{Msg: "third time lucky"}, 5*time.Second)
	if err != nil {
		t.Fatalf("call with retry: %v", err)
	}
	if resp.Msg != "third time lucky" {
		t.Fatalf("resp = %q", resp.Msg)
	}
	if flaky.dials != 3 {
		t.Fatalf("dials = %d, want 3 (two refused + one success)", flaky.dials)
	}
}

func TestRetryBoundedAndGivesUp(t *testing.T) {
	mem := NewMem()
	flaky := &flakyTransport{inner: mem, fails: 100}
	cli := NewClient(ClientConfig{
		Node: "c", ServerNode: "s", Addr: "dp-0",
		Transport: flaky, Clock: vtime.NewReal(),
		Retry: RetryPolicy{Attempts: 4, BaseBackoff: time.Microsecond},
	})
	defer cli.Close()
	_, err := Call[echoReq, echoResp](cli, "echo", echoReq{}, time.Second)
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused after exhausting retries", err)
	}
	if flaky.dials != 4 {
		t.Fatalf("dials = %d, want exactly Attempts=4", flaky.dials)
	}
}

func TestTimeoutIsNeverRetried(t *testing.T) {
	// A server that never answers within the deadline: with retry
	// configured, the client must still return after ONE timeout.
	profile := StackProfile{Name: "slow", BaseOverhead: 10 * time.Second, MaxConcurrent: 1}
	clock := vtime.NewReal()
	mem := NewMem()
	srv := NewServer("s", profile, clock)
	Handle(srv, "echo", func(r echoReq) (echoResp, error) { return echoResp(r), nil })
	l, err := mem.Listen("dp-0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer func() { srv.Close(); l.Close() }()
	cli := NewClient(ClientConfig{
		Node: "c", ServerNode: "s", Addr: "dp-0", Transport: mem, Clock: clock,
		Retry: RetryPolicy{Attempts: 5, BaseBackoff: time.Millisecond},
	})
	defer cli.Close()
	start := time.Now()
	_, err = Call[echoReq, echoResp](cli, "echo", echoReq{}, 50*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if e := time.Since(start); e > 500*time.Millisecond {
		t.Fatalf("timed-out call took %v; timeouts must not be retried", e)
	}
}

func TestRetryBackoffSequence(t *testing.T) {
	p := RetryPolicy{Attempts: 6, BaseBackoff: 100 * time.Millisecond}
	want := []time.Duration{100, 200, 400, 800, 800}
	for i, w := range want {
		if got := p.backoff(i + 1); got != w*time.Millisecond {
			t.Errorf("backoff(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
	// Seeded jitter replays: the same stream gives the same extensions.
	pj := func() RetryPolicy {
		return RetryPolicy{Attempts: 3, BaseBackoff: 100 * time.Millisecond,
			JitterFrac: 0.5, Jitter: netsim.Stream(9, "jitter")}
	}
	a, b := pj(), pj()
	for i := 1; i <= 3; i++ {
		da, db := a.backoff(i), b.backoff(i)
		if da != db {
			t.Errorf("jittered backoff(%d) not replayable: %v vs %v", i, da, db)
		}
		if da < 100*time.Millisecond || da > 800*time.Millisecond+400*time.Millisecond {
			t.Errorf("jittered backoff(%d) = %v out of range", i, da)
		}
	}
}

func waitForCond(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition never became true")
}

// deadOnArrival is a Transport whose connections are already closed by
// the far end: reads fail at once, writes are accepted and discarded.
type deadOnArrival struct{}

func (deadOnArrival) Listen(string) (Listener, error) { return nil, errors.New("dial only") }
func (deadOnArrival) Dial(string) (Conn, error)       { return deadConn{}, nil }

type deadConn struct{}

func (deadConn) Read([]byte) (int, error)    { return 0, io.EOF }
func (deadConn) Write(p []byte) (int, error) { return len(p), nil }
func (deadConn) Close() error                { return nil }

// TestConnDroppedBeforeSendIsConnLost: the read loop can drop a
// connection between the moment an attempt finds it up and the moment
// the attempt takes its encoder. That is a lost connection like any
// other — it used to be a nil encoder and a panic (seen from the chaos
// tests under load).
func TestConnDroppedBeforeSendIsConnLost(t *testing.T) {
	cli := NewClient(ClientConfig{
		Node: "client-node", ServerNode: "server-node", Addr: "dead",
		Transport: deadOnArrival{}, Clock: vtime.NewReal(),
	})
	t.Cleanup(cli.Close)
	for i := 0; i < 5000; i++ {
		if _, err := cli.CallCtx(trace.SpanContext{}, "echo", nil, time.Second); !errors.Is(err, ErrConnLost) {
			t.Fatalf("call %d: err = %v, want ErrConnLost", i, err)
		}
	}
}

// TestCloseFailsInFlightCalls closes the client while a call waits for
// its reply: the call must fail at once with ErrClosed instead of
// waiting out its timeout and reporting ErrTimeout.
func TestCloseFailsInFlightCalls(t *testing.T) {
	srv, cli := newPair(t, Instant(), nil, vtime.NewReal())
	entered := make(chan struct{})
	gate := make(chan struct{})
	defer close(gate)
	Handle(srv, "block", func(r echoReq) (echoResp, error) {
		close(entered)
		<-gate
		return echoResp(r), nil
	})
	done := make(chan error, 1)
	go func() {
		_, err := Call[echoReq, echoResp](cli, "block", echoReq{}, time.Minute)
		done <- err
	}()
	<-entered
	cli.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) || Classify(err) != FailureClosed {
			t.Fatalf("in-flight call: err = %v (%v), want ErrClosed", err, Classify(err))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight call still waiting 10s after Close")
	}
}

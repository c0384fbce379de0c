package wire

import (
	"errors"
	"testing"
	"time"

	"digruber/internal/trace"
	"digruber/internal/vtime"
)

// TestClientMetricsOutcomes: a shared ClientMetrics counts logical calls
// and attempts including retries, and each failed call surfaces its
// failure class.
func TestClientMetricsOutcomes(t *testing.T) {
	clock := vtime.NewReal()
	mem := NewMem()
	srv := NewServer("server-node", Instant(), clock)
	l, err := mem.Listen("dp-0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close(); l.Close() })
	Handle(srv, "echo", func(r echoReq) (echoResp, error) { return echoResp(r), nil })
	Handle(srv, "boom", func(r echoReq) (echoResp, error) { return echoResp{}, errors.New("app error") })

	m := NewClientMetrics()
	mkClient := func() *Client {
		c := NewClient(ClientConfig{
			Node: "client-node", ServerNode: "server-node",
			Addr: "dp-0", Transport: mem, Clock: clock, Metrics: m,
		})
		t.Cleanup(c.Close)
		return c
	}

	// Two clients share the same counter set.
	c1, c2 := mkClient(), mkClient()
	if _, err := Call[echoReq, echoResp](c1, "echo", echoReq{Msg: "a"}, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := Call[echoReq, echoResp](c2, "echo", echoReq{Msg: "b"}, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := Call[echoReq, echoResp](c1, "boom", echoReq{}, time.Second); Classify(err) != FailureOther {
		t.Fatalf("boom: err = %v, want an application error", err)
	}
	// Refused: nothing listens there.
	bad := NewClient(ClientConfig{
		Node: "client-node", ServerNode: "nowhere",
		Addr: "nowhere", Transport: mem, Clock: clock, Metrics: m,
		Retry: RetryPolicy{Attempts: 3},
	})
	t.Cleanup(bad.Close)
	if _, err := bad.CallCtx(trace.SpanContext{}, "echo", nil, time.Second); !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused", err)
	}

	st := m.Stats()
	// echo, echo and boom take 1 attempt each; the refused call retried
	// twice, so took 3.
	if st.Calls != 4 || st.Attempts != 6 {
		t.Fatalf("stats = %+v, want calls=4 attempts=6", st)
	}
}

// TestNilClientMetricsIsFree: un-instrumented clients and nil receivers
// take every path without panicking.
func TestNilClientMetricsIsFree(t *testing.T) {
	var m *ClientMetrics
	m.onCall()
	m.onAttempt()
	m.onThrottle()
	if st := m.Stats(); st != (ClientStats{}) {
		t.Fatalf("nil metrics stats = %+v", st)
	}
}

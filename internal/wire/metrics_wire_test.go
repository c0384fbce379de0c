package wire

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"digruber/internal/trace"
	"digruber/internal/tsdb"
	"digruber/internal/vtime"
)

// TestClientMetricsOutcomes: a shared ClientMetrics partitions logical
// call outcomes by failure class and counts attempts including retries.
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
	if _, err := Call[echoReq, echoResp](c1, "boom", echoReq{}, time.Second); err == nil {
		t.Fatal("boom should fail")
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
	if st.Calls != 4 || st.OK != 2 || st.Other != 1 || st.Refused != 1 {
		t.Fatalf("stats = %+v, want calls=4 ok=2 other=1 refused=1", st)
	}
	// The refused call retried twice: 3 + 3 + 1(boom had 1) ... attempts:
	// echo+echo+boom are 1 attempt each, refused call is 3.
	if st.Attempts != 6 || st.Retries != 2 {
		t.Fatalf("stats = %+v, want attempts=6 retries=2", st)
	}

	reg := tsdb.New(0)
	m.Register(reg, "clients/wire")
	reg.Sample(clock.Now())
	if p, ok := reg.Latest("clients/wire/calls"); !ok || p.V != 4 {
		t.Fatalf("clients/wire/calls = %v (ok=%v), want 4", p.V, ok)
	}
}

// TestNilClientMetricsIsFree: un-instrumented clients and nil receivers
// take every path without panicking.
func TestNilClientMetricsIsFree(t *testing.T) {
	var m *ClientMetrics
	m.onCall()
	m.onAttempt()
	m.onRetry()
	m.onResult(nil)
	m.onResult(fmt.Errorf("x"))
	m.Register(tsdb.New(0), "p")
	if st := m.Stats(); st != (ClientStats{}) {
		t.Fatalf("nil metrics stats = %+v", st)
	}
}

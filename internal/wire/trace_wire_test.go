package wire

import (
	"errors"
	"testing"
	"time"

	"digruber/internal/trace"
	"digruber/internal/vtime"
)

// tracedPair is newPair plus a shared collector and tracers installed on
// both ends.
func tracedPair(t *testing.T) (*Server, *Client, *trace.Tracer, *trace.Collector) {
	t.Helper()
	clock := vtime.NewReal()
	col := trace.NewCollector(0)
	cliTracer := trace.New(trace.Config{Actor: "client-node", Seed: 1, Clock: clock, Collector: col})
	srvTracer := trace.New(trace.Config{Actor: "server-node", Seed: 2, Clock: clock, Collector: col})

	mem := NewMem()
	srv := NewServer("server-node", Instant(), clock)
	srv.SetTracer(srvTracer)
	l, err := mem.Listen("dp-0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close(); l.Close() })
	cli := NewClient(ClientConfig{
		Node: "client-node", ServerNode: "server-node",
		Addr: "dp-0", Transport: mem, Clock: clock, Tracer: cliTracer,
	})
	t.Cleanup(cli.Close)
	return srv, cli, cliTracer, col
}

func TestTraceContextPropagatesThroughRPC(t *testing.T) {
	srv, cli, tracer, col := tracedPair(t)
	ctxCh := make(chan Ctx, 1)
	HandleCtx(srv, "echo", func(ctx Ctx, r echoReq) (echoResp, error) {
		ctxCh <- ctx
		return echoResp(r), nil
	})

	root := tracer.StartTrace(trace.PhaseSchedule)
	resp, err := CallCtx[echoReq, echoResp](cli, root.Context(), "echo", echoReq{Msg: "traced"}, time.Second)
	root.End()
	if err != nil || resp.Msg != "traced" {
		t.Fatalf("call: %v %+v", err, resp)
	}

	got := <-ctxCh
	if got.Span.Trace != root.Context().Trace {
		t.Fatalf("handler saw trace %d, client sent %d", got.Span.Trace, root.Context().Trace)
	}
	if !got.Span.Valid() || got.Span.Span == root.Context().Span {
		t.Errorf("handler should run under its own server-side span, got %+v", got.Span)
	}

	names := map[string]string{} // name → actor
	for _, r := range col.Records() {
		if r.Trace == root.Context().Trace {
			names[r.Name] = r.Actor
		}
	}
	for name, actor := range map[string]string{
		trace.PhaseSchedule: "client-node",
		trace.PhaseAttempt:  "client-node",
		trace.PhaseHandle:   "server-node",
	} {
		if names[name] != actor {
			t.Errorf("span %q recorded by %q, want %q (all: %v)", name, names[name], actor, names)
		}
	}
}

func TestUntracedCallRecordsNothing(t *testing.T) {
	srv, cli, _, col := tracedPair(t)
	Handle(srv, "echo", func(r echoReq) (echoResp, error) { return echoResp(r), nil })
	if _, err := Call[echoReq, echoResp](cli, "echo", echoReq{Msg: "x"}, time.Second); err != nil {
		t.Fatal(err)
	}
	if n := col.Len(); n != 0 {
		t.Fatalf("untraced call left %d span records: %+v", n, col.Records())
	}
}

// TestFailureClassCounters pins down the shed / served / conn-lost
// partition: every request the server received is accounted for exactly
// once, and work finished for a hung-up caller is visible as ConnLost.
func TestFailureClassCounters(t *testing.T) {
	srv, cli := newPair(t, Instant(), nil, vtime.NewReal())
	Handle(srv, "echo", func(r echoReq) (echoResp, error) { return echoResp(r), nil })
	block := make(chan struct{})
	Handle(srv, "block", func(r echoReq) (echoResp, error) {
		<-block
		return echoResp(r), nil
	})

	for i := 0; i < 3; i++ {
		if _, err := Call[echoReq, echoResp](cli, "echo", echoReq{}, time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// The caller times out and hangs up while the handler is still
	// running; the computed response then has no connection to land on.
	_, err := Call[echoReq, echoResp](cli, "block", echoReq{}, 50*time.Millisecond)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	cli.Close()
	close(block)
	waitForCond(t, func() bool { return srv.Stats().ConnLost >= 1 })

	st := srv.Stats()
	if st.ConnLost != 1 {
		t.Errorf("ConnLost = %d, want 1", st.ConnLost)
	}
	if st.Shed != 0 {
		t.Errorf("unexpected shed: %+v", st)
	}
	completed := srv.completed.Load()
	if completed != 4 {
		t.Errorf("completed = %d, want 4 (3 served + 1 lost)", completed)
	}
	if served := completed - st.ConnLost; served != 3 {
		t.Errorf("served = %d, want 3", served)
	}
	// Nothing failed: every request received was shed or completed.
	if st.Received != st.Shed+completed {
		t.Errorf("received %d != shed %d + completed %d",
			st.Received, st.Shed, completed)
	}
}

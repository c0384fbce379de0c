package wire

import (
	"testing"
	"time"

	"digruber/internal/trace"
	"digruber/internal/vtime"
)

// BenchmarkRPCRoundTripMem measures the raw request/response path over
// the in-memory transport with no emulated container cost — the floor
// under every emulated interaction.
func BenchmarkRPCRoundTripMem(b *testing.B) {
	mem := NewMem()
	srv := NewServer("bench-srv", Instant(), vtime.NewReal())
	Handle(srv, "echo", func(r echoReq) (echoResp, error) { return echoResp(r), nil })
	l, err := mem.Listen("bench")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(l)
	defer func() { srv.Close(); l.Close() }()
	cli := NewClient(ClientConfig{Node: "c", ServerNode: "s", Addr: "bench", Transport: mem, Clock: vtime.NewReal()})
	defer cli.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Call[echoReq, echoResp](cli, "echo", echoReq{Msg: "x"}, time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRPCLargePayload measures a DI-GRUBER-query-sized (24 KiB)
// response through the stack.
func BenchmarkRPCLargePayload(b *testing.B) {
	mem := NewMem()
	srv := NewServer("bench-srv", Instant(), vtime.NewReal())
	payload := make([]byte, 24<<10)
	Register(struct{ Data []byte }{})
	Handle(srv, "big", func(r echoReq) (struct{ Data []byte }, error) {
		return struct{ Data []byte }{Data: payload}, nil
	})
	l, err := mem.Listen("bench-big")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(l)
	defer func() { srv.Close(); l.Close() }()
	cli := NewClient(ClientConfig{Node: "c", ServerNode: "s", Addr: "bench-big", Transport: mem, Clock: vtime.NewReal()})
	defer cli.Close()

	b.SetBytes(24 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Call[echoReq, struct{ Data []byte }](cli, "big", echoReq{}, time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRPCRoundTripTraced measures the enabled-tracing cost of the
// in-memory round trip: a fresh trace per call, with the client attempt
// span and the server's queue/handle spans landing in a shared
// collector. Compare against BenchmarkRPCRoundTripMem (the nil-tracer
// fast path) for the overhead of turning tracing on.
func BenchmarkRPCRoundTripTraced(b *testing.B) {
	clock := vtime.NewReal()
	mem := NewMem()
	srv := NewServer("bench-srv", Instant(), clock)
	Handle(srv, "echo", func(r echoReq) (echoResp, error) { return echoResp(r), nil })
	l, err := mem.Listen("bench-traced")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(l)
	defer func() { srv.Close(); l.Close() }()

	var (
		col       *trace.Collector
		cliTracer *trace.Tracer
		cli       *Client
	)
	// fresh points both ends at an empty collector.
	fresh := func() {
		if cli != nil {
			cli.Close()
		}
		col = trace.NewCollector(0)
		cliTracer = trace.New(trace.Config{Actor: "c", Seed: 1, Clock: clock, Collector: col})
		srv.SetTracer(trace.New(trace.Config{Actor: "s", Seed: 2, Clock: clock, Collector: col}))
		cli = NewClient(ClientConfig{Node: "c", ServerNode: "s", Addr: "bench-traced", Transport: mem, Clock: clock, Tracer: cliTracer})
	}
	fresh()
	defer func() { cli.Close() }()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if col.Len() >= DefaultTracedBenchResetAt {
			// Keep measuring appends, not the drop path.
			b.StopTimer()
			fresh()
			b.StartTimer()
		}
		root := cliTracer.StartTrace(trace.PhaseSchedule)
		if _, err := CallCtx[echoReq, echoResp](cli, root.Context(), "echo", echoReq{Msg: "x"}, time.Second); err != nil {
			b.Fatal(err)
		}
		root.End()
	}
}

// DefaultTracedBenchResetAt bounds the collector growth during the
// traced benchmark without ever reaching the drop path.
const DefaultTracedBenchResetAt = 1 << 18

// BenchmarkRPCRoundTripTCP measures the same floor over loopback TCP,
// the cmd/ binaries' deployment mode.
func BenchmarkRPCRoundTripTCP(b *testing.B) {
	srv := NewServer("bench-srv", Instant(), vtime.NewReal())
	Handle(srv, "echo", func(r echoReq) (echoResp, error) { return echoResp(r), nil })
	l, err := TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(l)
	defer func() { srv.Close(); l.Close() }()
	cli := NewClient(ClientConfig{Node: "c", ServerNode: "s", Addr: l.Addr(), Transport: TCP{}, Clock: vtime.NewReal()})
	defer cli.Close()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Call[echoReq, echoResp](cli, "echo", echoReq{Msg: "x"}, time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

package wire_test

import (
	"fmt"
	"testing"
	"time"

	"digruber/internal/digruber"
	"digruber/internal/gruber"
	"digruber/internal/vtime"
	"digruber/internal/wire"
)

// ceilingCalls serves the two calls the benchmark's ledger isolates
// (wire.echo, wire.reply300) over the in-memory transport and returns a
// function that makes each once, with its types already warm.
func ceilingCalls(tb testing.TB) (echo, reply300 func()) {
	mem := wire.NewMem()
	srv := wire.NewServer("srv", wire.Instant(), vtime.NewReal())
	wire.Handle(srv, "echo", func(a digruber.PublishedArgs) (digruber.PublishedArgs, error) { return a, nil })
	var reply digruber.QueryReply
	for i := 0; i < 300; i++ {
		reply.Loads = append(reply.Loads, gruber.SiteLoad{
			Name: fmt.Sprintf("site-%03d", i), TotalCPUs: 100, EstFreeCPUs: i, Headroom: float64(i), TargetGap: 0.5,
		})
	}
	wire.Handle(srv, "reply300", func(digruber.QueryArgs) (digruber.QueryReply, error) { return reply, nil })
	l, err := mem.Listen("ceiling")
	if err != nil {
		tb.Fatal(err)
	}
	go srv.Serve(l)
	cli := wire.NewClient(wire.ClientConfig{Node: "c", ServerNode: "srv", Addr: "ceiling", Transport: mem, Clock: vtime.NewReal()})
	tb.Cleanup(func() { cli.Close(); srv.Close(); l.Close() })

	echo = func() {
		if _, err := wire.Call[digruber.PublishedArgs, digruber.PublishedArgs](cli, "echo", digruber.PublishedArgs{Provider: "site-000"}, time.Minute); err != nil {
			tb.Fatal(err)
		}
	}
	reply300 = func() {
		r, err := wire.Call[digruber.QueryArgs, digruber.QueryReply](cli, "reply300", digruber.QueryArgs{Owner: "vo-00.group-00", CPUs: 1}, time.Minute)
		if err != nil || len(r.Loads) != 300 {
			tb.Fatal(len(r.Loads), err)
		}
	}
	echo()
	reply300()
	return echo, reply300
}

// TestRoundTripAllocCeiling pins what one message costs once its types
// are warm. With a fresh gob encoder and decoder per body the echo read
// 356 allocations and the reply 722; with gob's decoder on the reply,
// 330, 300 of them its site names. What is left of the reply is the echo
// plus its bodies and the slice of loads.
func TestRoundTripAllocCeiling(t *testing.T) {
	echo, reply300 := ceilingCalls(t)
	if n := testing.AllocsPerRun(200, echo); n > 32 {
		t.Errorf("echo round trip: %.1f allocs, ceiling 32", n)
	}
	if n := testing.AllocsPerRun(200, reply300); n > 40 {
		t.Errorf("300-load reply round trip: %.1f allocs, ceiling 40", n)
	}
}

// BenchmarkReply300RoundTripMem reads the 300-load reply's whole round
// trip — both bodies, both frames, the in-memory pipe — without the
// harness; BenchmarkQueryReplyValue in internal/digruber reads the value
// hook's share of it.
func BenchmarkReply300RoundTripMem(b *testing.B) {
	_, reply300 := ceilingCalls(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reply300()
	}
}

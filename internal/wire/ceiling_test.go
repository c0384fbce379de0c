package wire_test

import (
	"fmt"
	"runtime"
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
// 330, 300 of them its site names; with gob's decoder on the frames, 28
// and 27, and the reply 58 KB: its encoded body, the message buffer it
// arrived in, the copy in frame.Body and the loads. The first three now
// go round their lists; a bare wire.Call keeps the loads it decoded
// (digruber.Client.Schedule gives those back too: its own ceiling is in
// internal/digruber), and that slice is what is left of the bytes.
func TestRoundTripAllocCeiling(t *testing.T) {
	echo, reply300 := ceilingCalls(t)
	if n := testing.AllocsPerRun(200, echo); n > 18 {
		t.Errorf("echo round trip: %.1f allocs, ceiling 18", n)
	}
	if n := testing.AllocsPerRun(200, reply300); n > 17 {
		t.Errorf("300-load reply round trip: %.1f allocs, ceiling 17", n)
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		reply300()
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 20<<10 {
		t.Errorf("300-load reply round trip: %d bytes allocated, ceiling 20 KB", perRun)
	} else {
		t.Logf("300-load reply round trip: %d bytes allocated", perRun)
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

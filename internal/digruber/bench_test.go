package digruber

import (
	"testing"
	"time"

	"digruber/internal/grid"
	"digruber/internal/netsim"
	"digruber/internal/vtime"
	"digruber/internal/wire"
	"digruber/internal/workload"
)

// BenchmarkDecision is one scheduling decision end to end — client,
// wire codec and framing, handler, engine — against one decision point
// over the paper's 300-site grid and composite-workload policies, on
// in-process pipes. It is the profiling entry point for the decision
// path:
//
//	go test -run '^$' -bench Decision -cpuprofile cpu.out -memprofile mem.out ./internal/digruber
//
// Jobs are generated before the timer starts, so the generator's own
// allocations stay out of the count; each holds one CPU for a second, so
// the grid never fills at the rates one caller reaches.
func BenchmarkDecision(b *testing.B) {
	for _, single := range []bool{true, false} {
		name := "twocall"
		if single {
			name = "singlecall"
		}
		b.Run(name, func(b *testing.B) { benchDecision(b, single) })
	}
}

func benchDecision(b *testing.B, single bool) {
	clock := vtime.NewReal()
	g, err := grid.Generate(grid.TopologyConfig{Seed: 1, Sites: 300, TotalCPUs: 30000, SizeSigma: 1, MaxClusterCPUs: 512}, clock)
	if err != nil {
		b.Fatal(err)
	}
	defer g.Shutdown()
	sites := g.Snapshot()
	names := make([]string, len(sites))
	for i, st := range sites {
		names[i] = st.Name
	}
	wcfg := workload.Default()
	wcfg.Hosts, wcfg.RuntimeSigma, wcfg.MeanRuntime = 100, 0, time.Second
	policies, err := workload.Policies(wcfg)
	if err != nil {
		b.Fatal(err)
	}
	mem := wire.NewMem()
	dp, err := New(Config{Name: "bench-dp", Addr: "bench-dp", Transport: mem, Clock: clock,
		Profile: wire.Instant(), Policies: policies, ExchangeInterval: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	dp.Engine().UpdateSites(sites, clock.Now())
	if err := dp.Start(); err != nil {
		b.Fatal(err)
	}
	defer dp.Stop()
	c, err := NewClient(ClientConfig{Name: "bench-client", DPName: dp.Name(), DPNode: dp.Name(), DPAddr: dp.Addr(),
		Transport: mem, Clock: clock, Timeout: 10 * time.Second, FallbackSites: names,
		RNG: netsim.Stream(1, "bench.decision"), SingleCall: single})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	gen := workload.NewGenerator(wcfg)
	jobs := func(n int) []*grid.Job {
		out := make([]*grid.Job, n)
		for i := range out {
			if out[i], err = gen.NextJob(i % wcfg.Hosts); err != nil {
				b.Fatal(err)
			}
		}
		return out
	}
	for _, j := range jobs(200) { // dial, gob type exchange, first-use storage
		if dec := c.Schedule(j); !dec.Handled {
			b.Fatalf("warm-up decision for %s: %+v", j.ID, dec)
		}
	}
	batch := jobs(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for _, j := range batch {
		if dec := c.Schedule(j); !dec.Handled {
			b.Fatalf("decision for %s: %+v", j.ID, dec)
		}
	}
}

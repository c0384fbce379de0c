package gruber

import (
	"fmt"
	"testing"
	"time"

	"digruber/internal/grid"
	"digruber/internal/usla"
	"digruber/internal/vtime"
)

// fullGridEngine builds an engine loaded with the paper's full-scale
// static view (300 sites), the composite-workload policy shape (10 VOs
// with targets and caps, 100 group targets) and a few hundred resident
// dispatches, so a query meets the state the benchmark's count phase
// leaves rather than an empty view.
func fullGridEngine(b testing.TB) *Engine {
	b.Helper()
	ps := usla.NewPolicySet()
	for v := 0; v < 10; v++ {
		vo := usla.Path{VO: fmt.Sprintf("vo-%02d", v)}
		ps.Add(usla.Entry{Provider: usla.AnyProvider, Consumer: vo, Resource: usla.CPU, Share: usla.Share{Percent: 10, Kind: usla.Target}})
		ps.Add(usla.Entry{Provider: usla.AnyProvider, Consumer: vo, Resource: usla.CPU, Share: usla.Share{Percent: 20, Kind: usla.UpperLimit}})
		for g := 0; g < 10; g++ {
			grp := usla.Path{VO: vo.VO, Group: fmt.Sprintf("group-%02d", g)}
			ps.Add(usla.Entry{Provider: usla.AnyProvider, Consumer: grp, Resource: usla.CPU, Share: usla.Share{Percent: 10, Kind: usla.Target}})
		}
	}
	e := NewEngine("dp-bench", ps, vtime.NewManual(epoch))
	statuses := make([]grid.Status, 300)
	for i := range statuses {
		statuses[i] = grid.Status{
			Name:        fmt.Sprintf("site-%03d", i),
			TotalCPUs:   100,
			FreeCPUs:    50 + i%50,
			UsageByPath: map[string]int{"vo-01": i % 30},
		}
	}
	e.UpdateSites(statuses, epoch)
	for i := 0; i < 400; i++ {
		e.RecordDispatch(Dispatch{
			JobID: fmt.Sprintf("resident-%d", i), Site: fmt.Sprintf("site-%03d", (i*7)%300),
			Owner: fmt.Sprintf("vo-%02d.group-%02d", i%10, i%7), CPUs: 1, Runtime: time.Hour, At: epoch,
		})
	}
	return e
}

// The read path's allocations are a contract, not a measurement: one
// SiteLoads is its result slice, and ranking that slice is free. A
// dispatch costs what it did before the engine-wide heap (its log slot,
// dedup entry, heap push and map growth, amortised).
func TestAllocationCeilings(t *testing.T) {
	e := fullGridEngine(t)
	owner := usla.MustParsePath("vo-01.group-02")
	loads := e.SiteLoads(owner, 1)
	if n := testing.AllocsPerRun(100, func() { e.SiteLoads(owner, 1) }); n > 3 {
		t.Errorf("SiteLoads over 300 sites: %v allocs, want <= 3", n)
	}
	if n := testing.AllocsPerRun(100, func() { (USLAAware{}).Select(loads, 1) }); n != 0 {
		t.Errorf("USLAAware.Select over 300 loads: %v allocs, want 0", n)
	}
	ds := make([]Dispatch, 2002)
	for i := range ds {
		ds[i] = Dispatch{JobID: fmt.Sprintf("alloc-%d", i), Site: "site-000", Owner: "vo-01.group-02", CPUs: 1, Runtime: time.Hour, At: epoch}
	}
	i := 0
	if n := testing.AllocsPerRun(2000, func() { e.RecordDispatch(ds[i]); i++ }); n > 5 {
		t.Errorf("RecordDispatch: %v allocs, want <= 5", n)
	}
}

// BenchmarkSiteLoads300Sites measures one full scheduling query's
// engine-side evaluation over the paper's 300-site environment.
func BenchmarkSiteLoads300Sites(b *testing.B) {
	e := fullGridEngine(b)
	owner := usla.MustParsePath("vo-01.group-02")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if loads := e.SiteLoads(owner, 1); len(loads) != 300 {
			b.Fatal("wrong load count")
		}
	}
}

// BenchmarkSiteLoads300SitesParallel is the same query from GOMAXPROCS
// callers at once: the in-package twin of the benchmark's
// gruber.siteloads_par2_scaling (run with -cpu 1,2 and compare ns/op).
func BenchmarkSiteLoads300SitesParallel(b *testing.B) {
	e := fullGridEngine(b)
	owner := usla.MustParsePath("vo-01.group-02")
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if loads := e.SiteLoads(owner, 1); len(loads) != 300 {
				b.Error("wrong load count")
				return
			}
		}
	})
}

// BenchmarkRecordDispatch measures the per-dispatch bookkeeping cost.
func BenchmarkRecordDispatch(b *testing.B) {
	e := fullGridEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RecordDispatch(Dispatch{
			JobID: fmt.Sprintf("j%d", i), Site: "site-000", Owner: "vo-01.group-02",
			CPUs: 1, Runtime: time.Hour, At: epoch,
		})
	}
}

// BenchmarkMergeRemoteBatch measures folding one exchange batch (100
// dispatches) into a peer's view.
func BenchmarkMergeRemoteBatch(b *testing.B) {
	e := fullGridEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch := make([]Dispatch, 100)
		for k := range batch {
			batch[k] = Dispatch{
				JobID: fmt.Sprintf("b%d-%d", i, k), Site: fmt.Sprintf("site-%03d", k%300),
				Owner: "vo-03", CPUs: 1, Runtime: time.Hour, At: epoch, Origin: "dp-other",
			}
		}
		e.MergeRemote(batch)
	}
}

// BenchmarkUSLAAwareSelect measures client-side selector ranking over a
// full 300-site load list.
func BenchmarkUSLAAwareSelect(b *testing.B) {
	e := fullGridEngine(b)
	loads := e.SiteLoads(usla.MustParsePath("vo-01"), 1)
	sel := USLAAware{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := sel.Select(loads, 1); !ok {
			b.Fatal("no selection")
		}
	}
}

package grid

import (
	"testing"
	"time"

	"digruber/internal/netsim"
	"digruber/internal/usla"
	"digruber/internal/vtime"
)

var epoch = time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)

func newTestSite(t *testing.T, cpus int) (*Site, *vtime.Manual) {
	t.Helper()
	clock := vtime.NewManual(epoch)
	s, err := NewSite(SiteConfig{Name: "s0", Clusters: []int{cpus}}, clock)
	if err != nil {
		t.Fatal(err)
	}
	return s, clock
}

func job(id string, owner string, cpus int, runtime time.Duration) *Job {
	return &Job{ID: JobID(id), Owner: usla.MustParsePath(owner), CPUs: cpus, Runtime: runtime}
}

func TestSiteRunsJobToCompletion(t *testing.T) {
	s, clock := newTestSite(t, 4)
	tk, err := s.Submit(job("j1", "atlas.higgs", 2, 10*time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	st := s.Snapshot()
	if st.FreeCPUs != 2 || st.UsageByPath["atlas.higgs"] != 2 {
		t.Fatalf("snapshot after start = %+v", st)
	}
	clock.Advance(10 * time.Minute)
	out := <-tk.Done()
	if out.Failed {
		t.Fatalf("job failed: %v", out.FailureReason)
	}
	if out.QTime() != 0 {
		t.Fatalf("QTime = %v, want 0 for immediate start", out.QTime())
	}
	if got := out.FinishedAt.Sub(out.QueuedAt); got != 10*time.Minute {
		t.Fatalf("makespan = %v", got)
	}
	if st := s.Snapshot(); st.FreeCPUs != 4 || len(st.UsageByPath) != 0 {
		t.Fatalf("snapshot after finish = %+v", st)
	}
}

func TestSiteQueuesWhenFull(t *testing.T) {
	s, clock := newTestSite(t, 1)
	tk1, _ := s.Submit(job("j1", "atlas", 1, 5*time.Minute))
	tk2, _ := s.Submit(job("j2", "atlas", 1, 5*time.Minute))
	// One job runs on the one CPU; the other waits for it.
	if st := s.Snapshot(); st.FreeCPUs != 0 || st.UsageByPath["atlas"] != 1 {
		t.Fatalf("snapshot = %+v", st)
	}
	clock.Advance(5 * time.Minute)
	<-tk1.Done()
	if st := s.Snapshot(); st.FreeCPUs != 0 || st.UsageByPath["atlas"] != 1 {
		t.Fatalf("after first finish: %+v", st)
	}
	clock.Advance(5 * time.Minute)
	out2 := <-tk2.Done()
	if out2.QTime() != 5*time.Minute {
		t.Fatalf("j2 QTime = %v, want 5m", out2.QTime())
	}
}

func TestFIFOOrder(t *testing.T) {
	s, clock := newTestSite(t, 1)
	var ticks []*Ticket
	for i := 0; i < 3; i++ {
		tk, _ := s.Submit(job(string(rune('a'+i)), "atlas", 1, time.Minute))
		ticks = append(ticks, tk)
	}
	clock.Advance(3 * time.Minute)
	var starts []time.Time
	for _, tk := range ticks {
		out := <-tk.Done()
		starts = append(starts, out.StartedAt)
	}
	if !(starts[0].Before(starts[1]) && starts[1].Before(starts[2])) {
		t.Fatalf("not FIFO: %v", starts)
	}
}

func TestUsageAccountingPerPrefix(t *testing.T) {
	s, clock := newTestSite(t, 10)
	s.Submit(job("j1", "atlas.higgs.alice", 2, time.Hour))
	s.Submit(job("j2", "atlas.higgs.bob", 3, time.Hour))
	s.Submit(job("j3", "atlas.susy", 1, time.Hour))
	s.Submit(job("j4", "cms", 4, time.Hour))
	if got := s.Snapshot().UsageByPath["atlas"]; got != 6 {
		t.Fatalf("atlas usage = %d, want 6", got)
	}
	if got := s.Snapshot().UsageByPath["atlas.higgs"]; got != 5 {
		t.Fatalf("atlas.higgs usage = %d, want 5", got)
	}
	if got := s.Snapshot().UsageByPath["atlas.higgs.alice"]; got != 2 {
		t.Fatalf("alice usage = %d", got)
	}
	if got := s.Snapshot().UsageByPath["cms"]; got != 4 {
		t.Fatalf("cms usage = %d", got)
	}
	clock.Advance(time.Hour)
	if got := s.Snapshot().UsageByPath["atlas"]; got != 0 {
		t.Fatalf("atlas usage after completion = %d, want 0", got)
	}
}

func TestSubmitValidation(t *testing.T) {
	s, _ := newTestSite(t, 2)
	cases := []*Job{
		{ID: "", Owner: usla.MustParsePath("v"), CPUs: 1, Runtime: time.Minute},
		{ID: "x", CPUs: 1, Runtime: time.Minute},
		{ID: "x", Owner: usla.MustParsePath("v"), CPUs: 0, Runtime: time.Minute},
		{ID: "x", Owner: usla.MustParsePath("v"), CPUs: 1, Runtime: 0},
		{ID: "x", Owner: usla.MustParsePath("v"), CPUs: 3, Runtime: time.Minute}, // exceeds site
	}
	for i, j := range cases {
		if _, err := s.Submit(j); err == nil {
			t.Errorf("case %d: invalid job accepted", i)
		}
	}
}

func TestFailureInjection(t *testing.T) {
	clock := vtime.NewManual(epoch)
	s, err := NewSite(SiteConfig{
		Name: "flaky", Clusters: []int{100}, FailProb: 1.0,
		RNG: netsim.Stream(1, "test.fail"),
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := s.Submit(job("j1", "atlas", 1, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	out := <-tk.Done()
	if !out.Failed {
		t.Fatal("job should have failed with FailProb=1")
	}
	if st := s.Snapshot(); st.FreeCPUs != 100 {
		t.Fatalf("failed job leaked CPUs: %+v", st)
	}
	if acc := s.Accounting(); acc.CompletedJobs != 0 {
		t.Fatalf("accounting = %+v", acc)
	}
}

func TestOutcomeHandlerInvoked(t *testing.T) {
	s, clock := newTestSite(t, 1)
	got := make(chan Outcome, 1)
	s.SetOutcomeHandler(func(o Outcome) { got <- o })
	s.Submit(job("j1", "atlas", 1, time.Minute))
	clock.Advance(time.Minute)
	select {
	case o := <-got:
		if o.Job.ID != "j1" || o.Site != "s0" {
			t.Fatalf("outcome = %+v", o)
		}
	default:
		t.Fatal("handler not invoked")
	}
}

func TestGridAggregation(t *testing.T) {
	clock := vtime.NewManual(epoch)
	g := New(clock)
	g.AddSite(SiteConfig{Name: "a", Clusters: []int{10}})
	g.AddSite(SiteConfig{Name: "b", Clusters: []int{20, 5}})
	if g.TotalCPUs() != 35 || g.NumSites() != 2 {
		t.Fatalf("total=%d sites=%d", g.TotalCPUs(), g.NumSites())
	}
	sa, _ := g.Site("a")
	sa.Submit(job("j1", "atlas", 4, time.Hour))
	if g.FreeCPUs() != 31 {
		t.Fatalf("free = %d, want 31", g.FreeCPUs())
	}
	if g.FreeCPUsAt("a") != 6 || g.FreeCPUsAt("b") != 25 || g.FreeCPUsAt("zzz") != 0 {
		t.Fatal("FreeCPUsAt wrong")
	}
	if _, err := g.AddSite(SiteConfig{Name: "a", Clusters: []int{1}}); err == nil {
		t.Fatal("duplicate site accepted")
	}
	snap := g.Snapshot()
	if len(snap) != 2 || snap[0].Name != "a" || snap[1].Name != "b" {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestSiteCloseResolvesEverything(t *testing.T) {
	s, _ := newTestSite(t, 2)
	tRun, _ := s.Submit(job("running", "atlas", 2, time.Hour))
	tQueued, _ := s.Submit(job("queued", "atlas", 1, time.Hour))
	s.Close()
	for name, tk := range map[string]*Ticket{"running": tRun, "queued": tQueued} {
		select {
		case out := <-tk.Done():
			if !out.Failed || out.FailureReason != "site shut down" {
				t.Fatalf("%s outcome = %+v", name, out)
			}
		default:
			t.Fatalf("%s ticket not resolved by Close", name)
		}
	}
	if _, err := s.Submit(job("late", "atlas", 1, time.Minute)); err == nil {
		t.Fatal("submit after Close succeeded")
	}
	s.Close() // idempotent
	if st := s.Snapshot(); st.FreeCPUs != 2 || len(st.UsageByPath) != 0 {
		t.Fatalf("post-close snapshot = %+v", st)
	}
}

func TestSiteCloseCancelsTimers(t *testing.T) {
	s, clock := newTestSite(t, 1)
	s.Submit(job("j", "atlas", 1, time.Minute))
	s.Close()
	// Advancing past the runtime must not resurrect accounting: the
	// timer was stopped and the running set cleared.
	clock.Advance(time.Hour)
	if acc := s.Accounting(); acc.CompletedJobs != 0 {
		t.Fatalf("cancelled job completed: %+v", acc)
	}
}

func TestGridShutdown(t *testing.T) {
	clock := vtime.NewManual(epoch)
	g := New(clock)
	g.AddSite(SiteConfig{Name: "a", Clusters: []int{2}})
	g.AddSite(SiteConfig{Name: "b", Clusters: []int{2}})
	sa, _ := g.Site("a")
	tk, _ := sa.Submit(job("x", "atlas", 1, time.Hour))
	g.Shutdown()
	select {
	case out := <-tk.Done():
		if !out.Failed {
			t.Fatal("job survived grid shutdown")
		}
	default:
		t.Fatal("ticket unresolved after shutdown")
	}
	if g.FreeCPUs() != 4 {
		t.Fatal("shutdown grid not idle")
	}
}

func TestUtilizationMetric(t *testing.T) {
	// 10 CPUs for 100s = 1000 cpu-s available; 250 cpu-s consumed → 25%.
	u := Utilization(250*time.Second, 10, 100*time.Second)
	if u < 0.2499 || u > 0.2501 {
		t.Fatalf("util = %v, want 0.25", u)
	}
	if Utilization(time.Second, 0, time.Second) != 0 {
		t.Fatal("zero-capacity util should be 0")
	}
}

func TestGenerateTopology(t *testing.T) {
	clock := vtime.NewManual(epoch)
	cfg := TopologyConfig{Seed: 1, Sites: 300, TotalCPUs: 30000, SizeSigma: 1.0, MaxClusterCPUs: 512}
	g, err := Generate(cfg, clock)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumSites() != cfg.Sites {
		t.Fatalf("sites = %d, want %d", g.NumSites(), cfg.Sites)
	}
	total := g.TotalCPUs()
	if total < cfg.TotalCPUs*95/100 || total > cfg.TotalCPUs*105/100 {
		t.Fatalf("total CPUs = %d, want ≈%d", total, cfg.TotalCPUs)
	}
	// Skewed sizes: the largest site should dwarf the median.
	sizes := make([]int, 0, g.NumSites())
	maxSize := 0
	for _, s := range g.Sites() {
		sizes = append(sizes, s.total)
		if s.total > maxSize {
			maxSize = s.total
		}
	}
	if maxSize < 5*(cfg.TotalCPUs/cfg.Sites) {
		t.Fatalf("largest site %d not skewed vs mean %d", maxSize, cfg.TotalCPUs/cfg.Sites)
	}
	_ = sizes
}

func TestGenerateDeterministic(t *testing.T) {
	clock := vtime.NewManual(epoch)
	cfg := TopologyConfig{Seed: 1, Sites: 30, TotalCPUs: 3000, SizeSigma: 1.0, MaxClusterCPUs: 512}
	g1, _ := Generate(cfg, clock)
	g2, _ := Generate(cfg, clock)
	s1, s2 := g1.Sites(), g2.Sites()
	for i := range s1 {
		if s1[i].total != s2[i].total {
			t.Fatal("topology generation not deterministic")
		}
	}
}

func TestGenerateRejectsBadConfig(t *testing.T) {
	clock := vtime.NewManual(epoch)
	if _, err := Generate(TopologyConfig{Sites: 0, TotalCPUs: 10}, clock); err == nil {
		t.Fatal("zero sites accepted")
	}
	if _, err := Generate(TopologyConfig{Sites: 100, TotalCPUs: 10}, clock); err == nil {
		t.Fatal("fewer CPUs than sites accepted")
	}
}

func TestMultiCPUJobBlocksUntilEnoughFree(t *testing.T) {
	s, clock := newTestSite(t, 4)
	s.Submit(job("small", "atlas", 3, 10*time.Minute))
	tkBig, _ := s.Submit(job("big", "atlas", 4, time.Minute))
	// FIFO head-of-line: big cannot start until small finishes.
	if st := s.Snapshot(); st.FreeCPUs != 1 || st.UsageByPath["atlas"] != 3 {
		t.Fatalf("snapshot = %+v", st)
	}
	clock.Advance(10 * time.Minute)
	clock.Advance(time.Minute)
	out := <-tkBig.Done()
	if out.QTime() != 10*time.Minute {
		t.Fatalf("big QTime = %v, want 10m", out.QTime())
	}
}

package euryale

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"digruber/internal/gram"
	"digruber/internal/grid"
	"digruber/internal/netsim"
	"digruber/internal/replica"
	"digruber/internal/usla"
	"digruber/internal/vtime"
)

// selectorFunc adapts a function to SiteSelector.
type selectorFunc func(j *grid.Job, excluded map[string]bool) (string, error)

func (f selectorFunc) SelectSite(j *grid.Job, excluded map[string]bool) (string, error) {
	return f(j, excluded)
}

// env assembles a small grid, a selector preferring the emptiest site,
// and a planner over them, all on the real clock with tiny runtimes.
type env struct {
	g       *grid.Grid
	cat     *replica.Catalog
	planner *Planner
	picks   []string
}

func newEnv(t *testing.T, failProbBySite map[string]float64) *env {
	t.Helper()
	clock := vtime.NewReal()
	g := grid.New(clock)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("site-%d", i)
		cfg := grid.SiteConfig{Name: name, Clusters: []int{4}}
		if p := failProbBySite[name]; p > 0 {
			cfg.FailProb = p
			cfg.RNG = netsim.Stream(1, "fail/"+name)
		}
		if _, err := g.AddSite(cfg); err != nil {
			t.Fatal(err)
		}
	}
	e := &env{g: g, cat: replica.NewCatalog()}
	selector := selectorFunc(func(j *grid.Job, excluded map[string]bool) (string, error) {
		best, bestFree := "", -1
		for _, s := range g.Sites() {
			if excluded[s.Name()] {
				continue
			}
			if free := g.FreeCPUsAt(s.Name()); free > bestFree {
				best, bestFree = s.Name(), free
			}
		}
		if best == "" {
			return "", errors.New("no site available")
		}
		e.picks = append(e.picks, best)
		return best, nil
	})
	submitter := gram.NewSubmitter(g, nil, clock, gram.Config{})
	p, err := New(selector, submitter, e.cat, nil, clock, Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.planner = p
	return e
}

func testJob(id string) *grid.Job {
	return &grid.Job{
		ID: grid.JobID(id), Owner: usla.MustParsePath("atlas"),
		CPUs: 1, Runtime: time.Millisecond, SubmitHost: "host-0",
	}
}

func TestRunJobSuccess(t *testing.T) {
	e := newEnv(t, nil)
	res, err := e.planner.RunJob(testJob("j1"), nil, []string{"out.dat"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 1 || res.Outcome.Failed {
		t.Fatalf("result = %+v", res)
	}
	if len(e.picks) != 1 || res.Outcome.Site != e.picks[0] {
		t.Fatalf("placements = %v, ran at %q", e.picks, res.Outcome.Site)
	}
	// Postscript registered the output at the collection area.
	copies := e.cat.Lookup("out.dat")
	if len(copies) != 1 || copies[0].Site != "collection" {
		t.Fatalf("output registration = %+v", copies)
	}
}

func TestReplanningAvoidsFailedSite(t *testing.T) {
	// site-0 has most free CPUs... all equal; selector picks site-0
	// first. Make site-0 always fail: the planner must re-plan away.
	e := newEnv(t, map[string]float64{"site-0": 1.0})
	res, err := e.planner.RunJob(testJob("j1"), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts < 2 {
		t.Fatalf("attempts = %d, want re-planning", res.Attempts)
	}
	if res.Outcome.Failed {
		t.Fatalf("job failed despite healthy alternatives: %+v", res.Outcome)
	}
	if res.Outcome.Site == "site-0" {
		t.Fatal("re-planned job still landed on the failing site")
	}
	// The selector was asked first for the failing site.
	if e.picks[0] != "site-0" {
		t.Fatalf("first placement = %s, want site-0", e.picks[0])
	}
}

func TestRunJobExhaustsAttempts(t *testing.T) {
	e := newEnv(t, map[string]float64{"site-0": 1, "site-1": 1, "site-2": 1})
	res, err := e.planner.RunJob(testJob("j1"), nil, nil)
	if err == nil {
		t.Fatal("expected failure when every site fails")
	}
	if !res.Outcome.Failed || res.Attempts != 3 {
		t.Fatalf("result = %+v", res)
	}
}

func TestStageInMovesMissingInputs(t *testing.T) {
	clock := &sleepLog{Clock: vtime.NewReal()}
	g := grid.New(clock)
	g.AddSite(grid.SiteConfig{Name: "cern", Clusters: []int{4}})
	g.AddSite(grid.SiteConfig{Name: "fnal", Clusters: []int{4}})
	cat := replica.NewCatalog()
	cat.Register("raw.dat", replica.PFN{Site: "cern", Path: "/raw", Size: 4 << 20})

	network := netsim.New(1, netsim.Profile{Name: "fast", MedianLatency: time.Microsecond, Bandwidth: 1e12})
	selector := selectorFunc(func(*grid.Job, map[string]bool) (string, error) { return "fnal", nil })
	submitter := gram.NewSubmitter(g, nil, clock, gram.Config{})
	p, _ := New(selector, submitter, cat, network, clock, Config{})

	if _, err := p.RunJob(testJob("j1"), []string{"raw.dat"}, nil); err != nil {
		t.Fatal(err)
	}
	if clock.slept() <= 0 {
		t.Fatal("no stage-in cost paid for a remote input")
	}
	// The transfer registered a new local copy and bumped popularity.
	if pfn, ok := cat.Nearest("raw.dat", "fnal"); !ok || pfn.Site != "fnal" {
		t.Fatalf("no local copy registered: %+v", pfn)
	}
	if cat.Popularity("raw.dat") != 1 {
		t.Fatal("postscript did not update popularity")
	}

	// Second run: input already local, no cost.
	before := clock.slept()
	if _, err := p.RunJob(testJob("j2"), []string{"raw.dat"}, nil); err != nil {
		t.Fatal(err)
	}
	if d := clock.slept() - before; d != 0 {
		t.Fatalf("stage-in cost %v for a local input", d)
	}
}

// sleepLog is a clock that totals what it is asked to sleep: the
// planner pays emulated transfer time by sleeping.
type sleepLog struct {
	vtime.Clock
	mu    sync.Mutex
	total time.Duration
}

func (c *sleepLog) Sleep(d time.Duration) {
	c.mu.Lock()
	c.total += d
	c.mu.Unlock()
	c.Clock.Sleep(d)
}

func (c *sleepLog) slept() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

func TestPlannerValidation(t *testing.T) {
	clock := vtime.NewReal()
	if _, err := New(nil, nil, nil, nil, clock, Config{}); err == nil {
		t.Fatal("nil selector/submitter accepted")
	}
}

func TestGramPaysLatency(t *testing.T) {
	clock := vtime.NewReal()
	g := grid.New(clock)
	g.AddSite(grid.SiteConfig{Name: "s", Clusters: []int{2}})
	network := netsim.New(1, netsim.Profile{Name: "slow", MedianLatency: 30 * time.Millisecond})
	sub := gram.NewSubmitter(g, network, clock, gram.Config{SubmitOverhead: 10 * time.Millisecond})
	start := time.Now()
	if _, err := sub.Submit("h", "s", testJob("j")); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e < 35*time.Millisecond {
		t.Fatalf("submit took %v, want ≥ latency+overhead", e)
	}
}

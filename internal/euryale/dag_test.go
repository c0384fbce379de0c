package euryale

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"digruber/internal/gram"
	"digruber/internal/grid"
	"digruber/internal/netsim"
	"digruber/internal/usla"
	"digruber/internal/vtime"
)

// dagEnv wires a planner whose selector succeeds on every site except
// those configured to fail at execution.
func dagPlanner(t *testing.T, siteFail float64) (*Planner, *grid.Grid) {
	t.Helper()
	clock := vtime.NewReal()
	g := grid.New(clock)
	cfg := grid.SiteConfig{Name: "s0", Clusters: []int{8}}
	if siteFail > 0 {
		cfg.FailProb = siteFail
		cfg.RNG = netsim.Stream(3, "dagfail")
	}
	g.AddSite(cfg)
	selector := selectorFunc(func(*grid.Job, map[string]bool) (string, error) { return "s0", nil })
	sub := gram.NewSubmitter(g, nil, clock, gram.Config{})
	p, err := New(selector, sub, nil, nil, clock, Config{MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	return p, g
}

func dagJob(id string) *grid.Job {
	return &grid.Job{ID: grid.JobID(id), Owner: usla.MustParsePath("atlas"), CPUs: 1, Runtime: time.Millisecond, SubmitHost: "h"}
}

func diamond(t *testing.T) *DAG {
	t.Helper()
	d := NewDAG()
	for _, n := range []Node{
		{ID: "gen", Job: dagJob("gen"), Outputs: []string{"raw"}},
		{ID: "recoA", Job: dagJob("recoA"), Parents: []string{"gen"}},
		{ID: "recoB", Job: dagJob("recoB"), Parents: []string{"gen"}},
		{ID: "merge", Job: dagJob("merge"), Parents: []string{"recoA", "recoB"}},
	} {
		if err := d.Add(n); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestDAGRunsAllNodes(t *testing.T) {
	p, _ := dagPlanner(t, 0)
	results, err := p.RunDAG(diamond(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	for id, r := range results {
		if r.Outcome.Failed {
			t.Fatalf("node %s failed: %+v", id, r.Outcome)
		}
	}
	// Dependency order: merge finished after both recos started after gen.
	if results["merge"].Outcome.StartedAt.Before(results["gen"].Outcome.FinishedAt) {
		t.Fatal("merge started before gen finished")
	}
}

func TestDAGFailureCascades(t *testing.T) {
	p, _ := dagPlanner(t, 1.0) // every execution fails, MaxAttempts 1
	results, err := p.RunDAG(diamond(t), 4)
	if err != nil {
		t.Fatal(err)
	}
	for id, r := range results {
		if !r.Outcome.Failed {
			t.Fatalf("node %s succeeded under total failure", id)
		}
	}
	// Descendants must not have actually run (no attempts).
	if results["merge"].Attempts != 0 {
		t.Fatalf("merge ran %d attempts despite failed parents", results["merge"].Attempts)
	}
}

func TestDAGValidation(t *testing.T) {
	d := NewDAG()
	if err := d.Add(Node{ID: "", Job: dagJob("x")}); err == nil {
		t.Fatal("empty ID accepted")
	}
	if err := d.Add(Node{ID: "a", Job: nil}); err == nil {
		t.Fatal("nil job accepted")
	}
	d.Add(Node{ID: "a", Job: dagJob("a")})
	if err := d.Add(Node{ID: "a", Job: dagJob("a")}); err == nil {
		t.Fatal("duplicate accepted")
	}
	d.Add(Node{ID: "b", Job: dagJob("b"), Parents: []string{"ghost"}})
	p, _ := dagPlanner(t, 0)
	if _, err := p.RunDAG(d, 1); err == nil {
		t.Fatal("unknown parent accepted")
	}
}

func TestDAGCycleRejected(t *testing.T) {
	d := NewDAG()
	d.Add(Node{ID: "a", Job: dagJob("a"), Parents: []string{"b"}})
	d.Add(Node{ID: "b", Job: dagJob("b"), Parents: []string{"a"}})
	p, _ := dagPlanner(t, 0)
	if _, err := p.RunDAG(d, 1); err == nil {
		t.Fatal("cycle accepted")
	}
}

func TestDAGParallelismBound(t *testing.T) {
	clock := vtime.NewReal()
	g := grid.New(clock)
	g.AddSite(grid.SiteConfig{Name: "s0", Clusters: []int{64}})
	var mu sync.Mutex
	inflight, maxInflight := 0, 0
	selector := selectorFunc(func(*grid.Job, map[string]bool) (string, error) {
		mu.Lock()
		inflight++
		if inflight > maxInflight {
			maxInflight = inflight
		}
		mu.Unlock()
		time.Sleep(5 * time.Millisecond)
		mu.Lock()
		inflight--
		mu.Unlock()
		return "s0", nil
	})
	sub := gram.NewSubmitter(g, nil, clock, gram.Config{})
	p, _ := New(selector, sub, nil, nil, clock, Config{})
	d := NewDAG()
	for i := 0; i < 16; i++ {
		d.Add(Node{ID: fmt.Sprintf("n%d", i), Job: dagJob(fmt.Sprintf("n%d", i))})
	}
	if _, err := p.RunDAG(d, 2); err != nil {
		t.Fatal(err)
	}
	if maxInflight > 2 {
		t.Fatalf("max concurrent selector calls = %d, want ≤ 2", maxInflight)
	}
}

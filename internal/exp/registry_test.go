package exp

import (
	"strings"
	"testing"
	"time"

	"digruber/internal/diperf"
)

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{
		"fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"tab1", "tab2", "tab3",
		"ablation-dissemination", "ablation-topology", "ablation-selector", "ablation-timeout",
		"ext-coupling", "ext-gt4c", "ext-dynamic-live", "ext-lan", "ext-trace-replay", "ext-failure",
		"ext-trace-breakdown", "ext-divergence", "ext-overload", "ext-elastic", "ext-gossip",
		"ext-slo", "ext-recovery",
	}
	for _, id := range want {
		e, ok := Lookup(id)
		if !ok {
			t.Errorf("experiment %q missing from registry", id)
			continue
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete: %+v", id, e)
		}
	}
	if got := len(Experiments()); got != len(want) {
		t.Errorf("registry has %d experiments, expected %d", got, len(want))
	}
}

func TestRegistrySortedAndUnique(t *testing.T) {
	exps := Experiments()
	seen := map[string]bool{}
	for i, e := range exps {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment %q", e.ID)
		}
		seen[e.ID] = true
		if i > 0 && exps[i-1].ID > e.ID {
			t.Fatalf("registry not sorted at %q", e.ID)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, ok := Lookup("fig99"); ok {
		t.Fatal("unknown experiment found")
	}
}

func TestFormatScenarioIncludesEverything(t *testing.T) {
	res := ScenarioResult{
		DiPerF: diperf.Result{Window: time.Minute, Ops: 10, Handled: 9},
		Table: Table{Rows: []TableRow{
			{Class: "handled"}, {Class: "not-handled"}, {Class: "all"},
		}},
		Util:            0.42,
		HandledAccuracy: 0.87,
		CompletedJobs:   123,
	}
	out := FormatScenario("Test Figure", res)
	for _, want := range []string{"Test Figure", "handled", "util=42.0%", "accuracy=87.0%", "completed jobs=123"} {
		if !strings.Contains(out, want) {
			t.Errorf("scenario format missing %q:\n%s", want, out)
		}
	}
}

func TestFormatAccuracyTable(t *testing.T) {
	out := FormatAccuracy("Sweep", []AccuracyPoint{
		{Interval: time.Minute, HandledAccuracy: 0.95, OverallAccuracy: 0.93, HandledPct: 99},
		{Interval: 30 * time.Minute, HandledAccuracy: 0.60, OverallAccuracy: 0.58, HandledPct: 98},
	})
	for _, want := range []string{"Sweep", "1m0s", "30m0s", "95.0%", "60.0%"} {
		if !strings.Contains(out, want) {
			t.Errorf("accuracy format missing %q:\n%s", want, out)
		}
	}
}

func TestFormatTab3Table(t *testing.T) {
	out := FormatTab3([]Tab3Row{
		{Stack: "GT3", InitialDPs: 1, AdditionalDPs: 4, FinalDPs: 5, MeanResponse: 1700 * time.Millisecond, Throughput: 17},
	})
	for _, want := range []string{"GT3", "additional", "17.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("tab3 format missing %q:\n%s", want, out)
		}
	}
}

func TestScalesSane(t *testing.T) {
	for _, s := range []Scale{FullScale(), BenchScale(), tinyScale()} {
		if s.Sites <= 0 || s.TotalCPUs < s.Sites || s.Clients <= 0 ||
			s.Duration <= 0 || s.Speedup <= 0 || s.Window <= 0 {
			t.Errorf("scale %q has degenerate fields: %+v", s.Name, s)
		}
	}
	full, bench := FullScale(), BenchScale()
	if full.Sites <= bench.Sites || full.TotalCPUs <= bench.TotalCPUs {
		t.Error("full scale should exceed bench scale")
	}
	if full.Sites != 300 || full.TotalCPUs != 30000 {
		t.Errorf("full scale should match the paper's 10× Grid3 environment, got %+v", full)
	}
}

func TestSelectorByNameCoversAll(t *testing.T) {
	for _, name := range []string{"", "usla-aware", "random", "round-robin", "least-used", "least-recently-used", "most-free"} {
		if _, err := selectorByName(name, 1, 0); err != nil {
			t.Errorf("selectorByName(%q): %v", name, err)
		}
	}
	if _, err := selectorByName("bogus", 1, 0); err == nil {
		t.Error("unknown selector accepted")
	}
}

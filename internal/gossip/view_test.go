package gossip

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

// fleet names n members, sorted: dp-00 … dp-(n-1).
func fleet(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("dp-%02d", i)
	}
	return out
}

// active is the subset a round can draw from: a sample as large as the
// view is a permutation of it.
func active(self string, seed int64, size int, names []string) []string {
	out := Sample(self, seed, 1, len(names), Active(self, seed, size, names))
	sort.Strings(out)
	return out
}

func TestViewCapBoundsActiveSubset(t *testing.T) {
	names := fleet(40)[1:]
	subset := active("dp-00", 7, 5, names)
	if len(subset) != 5 {
		t.Fatalf("active subset = %d members; want cap 5", len(subset))
	}
	if len(names) != 39 || !sort.StringsAreSorted(names) {
		t.Fatalf("Active changed its input: %v", names)
	}
	// The active subset is stable: same view, same subset.
	if again := active("dp-00", 7, 5, names); !reflect.DeepEqual(subset, again) {
		t.Fatalf("active subset changed between calls: %v vs %v", subset, again)
	}
	// Different selves keep different subsets (decorrelated subgraphs).
	if reflect.DeepEqual(subset, active("dp-99", 7, 5, names)) {
		t.Fatalf("dp-00 and dp-99 picked identical active subsets %v", subset)
	}
	// Uncapped, or capped above the view, every member is active.
	if got := Active("dp-00", 7, 0, names); !reflect.DeepEqual(got, names) {
		t.Fatalf("uncapped Active = %v; want every member", got)
	}
	if got := Active("dp-00", 7, 39, names); !reflect.DeepEqual(got, names) {
		t.Fatalf("Active capped at the view's size = %v; want every member", got)
	}
}

func TestSampleDeterministicPerRound(t *testing.T) {
	names := fleet(20)[1:]
	r1 := Sample("dp-00", 42, 1, 3, names)
	if len(r1) != 3 {
		t.Fatalf("Sample(1,3) = %d members; want 3", len(r1))
	}
	if !reflect.DeepEqual(r1, Sample("dp-00", 42, 1, 3, fleet(20)[1:])) {
		t.Fatal("two identical views sampled different peers for the same round")
	}
	if !reflect.DeepEqual(names, fleet(20)[1:]) {
		t.Fatalf("Sample changed its input: %v", names)
	}
	seen := map[string]bool{}
	for _, m := range r1 {
		if m == "dp-00" {
			t.Fatal("sample contains self")
		}
		if seen[m] {
			t.Fatalf("sample repeats %s", m)
		}
		seen[m] = true
	}
	// Across rounds the draw varies — that's the epidemic mixing.
	varied := false
	for round := uint64(2); round < 8; round++ {
		if !reflect.DeepEqual(r1, Sample("dp-00", 42, round, 3, names)) {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatal("samples never varied across 6 rounds")
	}
}

func TestSampleClampsToViewSize(t *testing.T) {
	names := []string{"dp-01", "dp-02"}
	if got := Sample("dp-00", 1, 3, 10, names); len(got) != 2 {
		t.Fatalf("Sample(k=10) over 2 members = %d; want 2", len(got))
	}
	if got := Sample("dp-00", 1, 3, 0, names); got != nil {
		t.Fatalf("Sample(k=0) = %v; want nil", got)
	}
	if got := Sample("dp-00", 1, 1, 3, nil); got != nil {
		t.Fatalf("Sample over empty view = %v; want nil", got)
	}
}

func TestCursorsRoundTripSortedAndUnique(t *testing.T) {
	vv := map[string]uint64{"dp-b": 7, "dp-a": 3, "dp-c": 0}
	cs := Cursors(vv)
	if len(cs) != 3 || cs[0].Origin != "dp-a" || cs[1].Origin != "dp-b" || cs[2].Origin != "dp-c" {
		t.Fatalf("Cursors = %+v; want sorted by origin with zero entries kept", cs)
	}
	if !reflect.DeepEqual(Vector(cs), vv) {
		t.Fatalf("Vector(Cursors(vv)) = %v; want %v", Vector(cs), vv)
	}
	if Cursors(nil) != nil || Vector(nil) != nil {
		t.Fatal("empty vector/digest must stay nil for gob zero-elision")
	}
}

func TestMinAckedFoldsPerOriginMinimum(t *testing.T) {
	origins := []string{"dp-a", "dp-b"}
	acc := map[string]uint64{}
	MinAcked(acc, map[string]uint64{"dp-a": 5, "dp-b": 9}, origins)
	MinAcked(acc, map[string]uint64{"dp-a": 3}, origins) // dp-b missing → 0
	if acc["dp-a"] != 3 || acc["dp-b"] != 0 {
		t.Fatalf("acc = %v; want dp-a:3 dp-b:0", acc)
	}
}

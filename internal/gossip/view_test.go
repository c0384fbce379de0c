package gossip

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
)

func fleet(n int) []Member {
	out := make([]Member, n)
	for i := range out {
		name := fmt.Sprintf("dp-%02d", i)
		out[i] = Member{Name: name, Node: name, Addr: "mem/" + name}
	}
	return out
}

func TestViewIgnoresSelfAndDuplicates(t *testing.T) {
	v := NewView("dp-00", 1, 0)
	for _, m := range fleet(4) {
		v.Add(m)
		v.Add(m)
	}
	if v.Len() != 3 {
		t.Fatalf("Len = %d; want 3 (self excluded, adds idempotent)", v.Len())
	}
	if contains(v, "dp-00") {
		t.Fatal("view contains self")
	}
	v.Remove("dp-01")
	if contains(v, "dp-01") || v.Len() != 2 {
		t.Fatalf("after Remove: Len = %d, contains dp-01 = %v", v.Len(), contains(v, "dp-01"))
	}
}

func TestViewAddOverwritesAddress(t *testing.T) {
	v := NewView("dp-00", 1, 0)
	v.Add(Member{Name: "dp-01", Node: "n1", Addr: "old"})
	v.Add(Member{Name: "dp-01", Node: "n1", Addr: "new"})
	ms := v.All()
	if len(ms) != 1 || ms[0].Addr != "new" {
		t.Fatalf("All = %+v; want one member at the new address", ms)
	}
}

func contains(v *View, name string) bool {
	for _, m := range v.All() {
		if m.Name == name {
			return true
		}
	}
	return false
}

// active is the subset a round can draw from, by name: a sample as
// large as the view is a permutation of it.
func active(v *View) []string {
	out := names(v.Sample(1, v.Len()))
	sort.Strings(out)
	return out
}

func TestViewCapBoundsActiveSubset(t *testing.T) {
	v := NewView("dp-00", 7, 5)
	for _, m := range fleet(40)[1:] {
		v.Add(m)
	}
	subset := active(v)
	if len(subset) != 5 {
		t.Fatalf("active subset = %d members; want cap 5", len(subset))
	}
	if all := v.All(); len(all) != 39 {
		t.Fatalf("All = %d members; want 39 (cap must not forget members)", len(all))
	}
	// The active subset is stable: same view, same subset.
	if again := active(v); !reflect.DeepEqual(subset, again) {
		t.Fatalf("active subset changed between calls: %v vs %v", subset, again)
	}
	// Different selves keep different subsets (decorrelated subgraphs).
	w := NewView("dp-99", 7, 5)
	for _, m := range fleet(40)[1:] {
		w.Add(m)
	}
	if reflect.DeepEqual(subset, active(w)) {
		t.Fatalf("dp-00 and dp-99 picked identical active subsets %v", subset)
	}
}

func names(ms []Member) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

func TestSampleDeterministicPerRound(t *testing.T) {
	build := func() *View {
		v := NewView("dp-00", 42, 0)
		for _, m := range fleet(20)[1:] {
			v.Add(m)
		}
		return v
	}
	a, b := build(), build()
	r1 := a.Sample(1, 3)
	if len(r1) != 3 {
		t.Fatalf("Sample(1,3) = %d members; want 3", len(r1))
	}
	if !reflect.DeepEqual(r1, b.Sample(1, 3)) {
		t.Fatal("two identical views sampled different peers for the same round")
	}
	seen := map[string]bool{}
	for _, m := range r1 {
		if m.Name == "dp-00" {
			t.Fatal("sample contains self")
		}
		if seen[m.Name] {
			t.Fatalf("sample repeats %s", m.Name)
		}
		seen[m.Name] = true
	}
	// Across rounds the draw varies — that's the epidemic mixing.
	varied := false
	for round := uint64(2); round < 8; round++ {
		if !reflect.DeepEqual(names(r1), names(a.Sample(round, 3))) {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatal("samples never varied across 6 rounds")
	}
}

func TestSampleClampsToViewSize(t *testing.T) {
	v := NewView("dp-00", 1, 0)
	v.Add(Member{Name: "dp-01"})
	v.Add(Member{Name: "dp-02"})
	if got := v.Sample(3, 10); len(got) != 2 {
		t.Fatalf("Sample(k=10) over 2 members = %d; want 2", len(got))
	}
	if got := v.Sample(3, 0); got != nil {
		t.Fatalf("Sample(k=0) = %v; want nil", got)
	}
	empty := NewView("dp-00", 1, 0)
	if got := empty.Sample(1, 3); got != nil {
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
	if Seq(cs, "dp-b") != 7 || Seq(cs, "dp-x") != 0 {
		t.Fatalf("Seq lookups wrong: dp-b=%d dp-x=%d", Seq(cs, "dp-b"), Seq(cs, "dp-x"))
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

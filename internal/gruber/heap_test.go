package gruber

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// refHeap is container/heap over the same elements: the order the typed
// heap must reproduce, ties included.
type refHeap []pendingDispatch

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].expiry.Before(h[j].expiry) }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(pendingDispatch)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	p := old[len(old)-1]
	*h = old[:len(old)-1]
	return p
}

// TestDispatchHeapMatchesContainerHeap pushes, pops and re-inits the typed
// heap and container/heap side by side, with expiries drawn from a few
// values so that ties are common: every pop must hand out the same
// dispatch, which is what keeps the engine's prune order — and every
// golden downstream of it — where container/heap left it.
func TestDispatchHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var typed dispatchHeap
	var ref refHeap
	seq := 0
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(10); {
		case op < 5:
			seq++
			p := pendingDispatch{Dispatch: Dispatch{Seq: uint64(seq)}, expiry: epoch.Add(time.Duration(rng.Intn(8)) * time.Second)}
			typed.push(p)
			heap.Push(&ref, p)
		case op < 9 && len(ref) > 0:
			got, want := typed.pop(), heap.Pop(&ref).(pendingDispatch)
			if got.Seq != want.Seq {
				t.Fatalf("step %d: the typed heap popped dispatch %d, container/heap %d", step, got.Seq, want.Seq)
			}
		case op == 9:
			// UpdateSites drops some dispatches and re-establishes the order.
			n := len(ref) * 3 / 4
			typed, ref = typed[:n], ref[:n]
			typed.init()
			heap.Init(&ref)
		}
		if len(typed) != len(ref) {
			t.Fatalf("step %d: %d dispatches in the typed heap, %d in container/heap", step, len(typed), len(ref))
		}
		for i := range ref {
			if typed[i].Seq != ref[i].Seq {
				t.Fatalf("step %d: the two heaps' arrays differ at %d", step, i)
			}
		}
	}
}

package tsdb

import (
	"sync"
	"testing"
	"time"
)

var exEpoch = time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)

// TestHistogramExemplarWorstWins: a bucket's exemplar tracks the worst
// (largest) traced observation that landed in it, and untraced
// observations never set or clobber one.
func TestHistogramExemplarWorstWins(t *testing.T) {
	h := newHistogram("ex", []float64{1, 5, 10})

	h.ObserveTrace(0.5, 0, time.Time{}) // untraced: counts, no exemplar
	if ex := h.Exemplars(); ex[0].Valid() {
		t.Fatalf("untraced observation set an exemplar: %+v", ex[0])
	}

	h.ObserveTrace(2.0, 101, exEpoch)
	h.ObserveTrace(4.5, 102, exEpoch.Add(time.Minute))
	h.ObserveTrace(3.0, 103, exEpoch.Add(2*time.Minute))
	ex := h.Exemplars()
	// 2.0, 4.5 and 3.0 all land in the (1,5] bucket (index 1); unless a
	// 1/8 eviction draw fired for the 3.0 sample, the 4.5 holds the slot.
	got := ex[1]
	if !got.Valid() {
		t.Fatal("traced observations left no exemplar")
	}
	if got.Trace != 102 && got.Trace != 103 {
		t.Fatalf("bucket exemplar trace = %d, want the worst (102) or an evicted-in 103", got.Trace)
	}
	if got.Trace == 102 && got.V != 4.5 {
		t.Fatalf("exemplar value = %v, want 4.5", got.V)
	}

	// Worst-wins is unconditional: an equal-or-larger sample always takes
	// the slot regardless of eviction draws.
	h.ObserveTrace(4.9, 104, exEpoch.Add(3*time.Minute))
	if got := h.Exemplars()[1]; got.Trace != 104 || got.V != 4.9 {
		t.Fatalf("worse sample did not take the slot: %+v", got)
	}

	// Untraced traffic afterwards leaves it alone.
	for i := 0; i < 100; i++ {
		h.ObserveTrace(4.99, 0, time.Time{})
	}
	if got := h.Exemplars()[1]; got.Trace != 104 {
		t.Fatalf("untraced traffic clobbered the exemplar: %+v", got)
	}

	var nilH *Histogram
	nilH.ObserveTrace(1, 1, exEpoch) // nil-off
	if nilH.Exemplars() != nil {
		t.Fatal("nil histogram returned exemplars")
	}
}

// TestHistogramExemplarSeededEviction: a not-worse traced sample
// eventually replaces a held exemplar via the seeded 1/8 eviction draw,
// and the draw sequence is deterministic per histogram name.
func TestHistogramExemplarSeededEviction(t *testing.T) {
	run := func() uint64 {
		h := newHistogram("evict", []float64{10})
		h.ObserveTrace(9.9, 1, exEpoch) // extreme outlier holds the slot
		for i := 0; i < 64; i++ {
			h.ObserveTrace(1.0, uint64(100+i), exEpoch.Add(time.Duration(i)*time.Second))
			if got := h.Exemplars()[0]; got.Trace != 1 {
				return got.Trace
			}
		}
		return 0
	}
	first := run()
	if first == 0 {
		t.Fatal("64 not-worse samples never evicted the outlier (expected ~1/8 rate)")
	}
	if again := run(); again != first {
		t.Fatalf("eviction not deterministic: first run evicted at trace %d, second at %d", first, again)
	}
}

// TestHistogramExemplarSurvivesRotation: window rotation (registry
// Sample) resets bucket counts but keeps exemplars, so the spike a
// sample just exposed is still drillable after the rotation.
func TestHistogramExemplarSurvivesRotation(t *testing.T) {
	r := New(0)
	h := r.Histogram("lat", []float64{1, 5})
	h.ObserveTrace(3.0, 77, exEpoch)
	r.Sample(exEpoch.Add(time.Minute))

	if p, ok := r.Latest("lat/le/5"); !ok || p.V != 1 {
		t.Fatalf("window bucket count = %+v, want 1", p)
	}
	ex := r.Exemplars("lat")
	if len(ex) != 3 || ex[1].Trace != 77 {
		t.Fatalf("exemplar lost across rotation: %+v", ex)
	}
	// Second rotation with no traffic: counts go to zero, exemplar stays.
	r.Sample(exEpoch.Add(2 * time.Minute))
	if p, _ := r.Latest("lat/le/5"); p.V != 0 {
		t.Fatalf("second window bucket count = %v, want 0", p.V)
	}
	if got := r.Exemplars("lat")[1]; got.Trace != 77 {
		t.Fatalf("exemplar lost on quiet rotation: %+v", got)
	}
}

// TestRegistryExemplarAccessors: Exemplars answers nil for unknown or
// non-histogram names and on a nil registry.
func TestRegistryExemplarAccessors(t *testing.T) {
	r := New(0)
	r.Gauge("g").Set(1)
	if r.Exemplars("g") != nil || r.Exemplars("missing") != nil {
		t.Fatal("non-histogram name returned exemplars")
	}
	var nilR *Registry
	if nilR.Exemplars("x") != nil {
		t.Fatal("nil registry returned data")
	}
}

// TestHistogramExemplarConcurrentRotation hammers exemplar capture from
// many goroutines while the registry rotates the window underneath —
// the CI race step runs this with -race -count=4. The assertion is
// consistency, not a particular winner: every retained exemplar must be
// one that was actually observed, with its own value and timestamp.
func TestHistogramExemplarConcurrentRotation(t *testing.T) {
	r := New(0)
	h := r.Histogram("race", []float64{0.5, 1, 2})

	const workers, perWorker = 8, 500
	var rotators, observers sync.WaitGroup
	stop := make(chan struct{})
	rotators.Add(1)
	go func() {
		defer rotators.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.Sample(exEpoch.Add(time.Duration(i) * time.Second))
			i++
		}
	}()
	for w := 0; w < workers; w++ {
		observers.Add(1)
		go func(w int) {
			defer observers.Done()
			for i := 0; i < perWorker; i++ {
				id := uint64(w*perWorker + i + 1)
				v := float64(id%40) / 10.0
				h.ObserveTrace(v, id, exEpoch.Add(time.Duration(i)*time.Millisecond))
				if i%16 == 0 {
					h.Exemplars() // concurrent reads too
				}
			}
		}(w)
	}
	observers.Wait()
	close(stop)
	rotators.Wait()

	total := 0.0
	for _, name := range []string{"race/le/0.5", "race/le/1", "race/le/2", "race/le/inf"} {
		for _, p := range r.Points(name) {
			total += p.V
		}
	}
	// Everything not yet rotated is still in the live window.
	_, _, live := h.takeWindow()
	if int(total)+int(live) != workers*perWorker {
		t.Fatalf("observations lost under rotation: %v sampled + %d live, want %d", total, live, workers*perWorker)
	}
	for b, ex := range h.Exemplars() {
		if !ex.Valid() {
			continue
		}
		if ex.Trace == 0 || ex.Trace > workers*perWorker {
			t.Fatalf("bucket %d holds an exemplar that was never observed: %+v", b, ex)
		}
		if want := float64(ex.Trace%40) / 10.0; ex.V != want {
			t.Fatalf("bucket %d exemplar value %v does not match its trace %d (want %v) — torn write", b, ex.V, ex.Trace, want)
		}
	}
}

package tsdb

import (
	"math"
	"sort"
	"sync"
	"time"

	"digruber/internal/netsim"
)

// DefBuckets is the fallback bucket layout (seconds-flavored, like the
// classic latency buckets): used when a histogram is registered with no
// valid bounds.
var DefBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

// Exemplar links one histogram bucket to the request that put its worst
// recent observation there: the observed value, the request's trace ID,
// and the virtual time of the observation. The zero Exemplar (Trace 0)
// means the bucket holds none — untraced observations never set one.
type Exemplar struct {
	V     float64
	Trace uint64
	T     time.Time
}

// Valid reports whether the exemplar refers to a real traced sample.
func (e Exemplar) Valid() bool { return e.Trace != 0 }

// exemplarEvictInverse is the seeded-eviction rate: a traced observation
// that is NOT worse than a bucket's held exemplar still replaces it with
// probability 1/exemplarEvictInverse. Exemplars survive window rotation
// (the spike a sample just exposed must still be drillable after the
// rotation that exposed it), so this randomized turnover is what keeps
// them *recent* — a one-off extreme outlier stops pinning its bucket
// after a geometrically-bounded number of later observations.
const exemplarEvictInverse = 8

// Histogram counts observations into a fixed bucket layout. It is
// windowed: each registry Sample emits the counts accumulated since the
// previous sample and resets them, so the exported series are per-window
// bucket counts (plus /count and /sum), not cumulative totals. A nil
// *Histogram ignores every call.
//
// Each bucket additionally retains one Exemplar for its worst recent
// traced observation (see ObserveTrace); exemplars are not series — they
// carry full-width trace IDs a float64 sample could not — and are read
// back via Exemplars.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // sorted upper bounds; an implicit +Inf bucket follows
	counts []int64   // len(bounds)+1, the current window
	sum    float64
	n      int64
	ex     []Exemplar // len(bounds)+1, worst recent traced sample per bucket
	evict  interface{ Uint64() uint64 }
}

// newHistogram builds a histogram with sanitized bounds: non-finite
// values dropped, sorted, deduplicated; empty falls back to DefBuckets.
// The name seeds the exemplar-eviction stream, so a deterministic run
// makes deterministic eviction draws per histogram.
func newHistogram(name string, bounds []float64) *Histogram {
	clean := make([]float64, 0, len(bounds))
	for _, b := range bounds {
		if !math.IsNaN(b) && !math.IsInf(b, 0) {
			clean = append(clean, b)
		}
	}
	sort.Float64s(clean)
	dedup := clean[:0]
	for i, b := range clean {
		if i == 0 || b != clean[i-1] {
			dedup = append(dedup, b)
		}
	}
	if len(dedup) == 0 {
		dedup = append(dedup, DefBuckets...)
	}
	return &Histogram{
		bounds: dedup,
		counts: make([]int64, len(dedup)+1),
		ex:     make([]Exemplar, len(dedup)+1),
		evict:  netsim.Stream(0, "tsdb.exemplar/"+name),
	}
}

// Bounds returns the bucket upper bounds (shared; do not mutate).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return h.bounds
}

// ObserveTrace adds one observation to the current window (NaN is
// ignored) and captures an exemplar: the observation's trace ID and
// virtual timestamp are retained on its bucket when the sample is the
// worst the bucket has recently seen. Replacement is worst-wins
// (v at or above the held exemplar's value always takes the slot, so
// each bucket points at its recent maximum) with seeded eviction: a
// not-worse sample still takes the slot on a 1/8 draw from the
// histogram's deterministic stream, bounding how long a stale outlier
// survives. A zero trace ID degrades to a plain observation — untraced
// callers pay nothing and never clobber an exemplar.
func (h *Histogram) ObserveTrace(v float64, traceID uint64, at time.Time) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.n++
	if traceID != 0 {
		if !h.ex[i].Valid() || v >= h.ex[i].V || h.evict.Uint64()%exemplarEvictInverse == 0 {
			h.ex[i] = Exemplar{V: v, Trace: traceID, T: at}
		}
	}
	h.mu.Unlock()
}

// Exemplars returns a copy of the per-bucket exemplars: index i matches
// Bounds()[i], the final entry is the +Inf overflow bucket. Buckets that
// never saw a traced observation hold the zero Exemplar. Unlike the
// bucket counts, exemplars are not reset by window rotation — the spike
// a sample just exposed stays drillable after the rotation.
func (h *Histogram) Exemplars() []Exemplar {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]Exemplar(nil), h.ex...)
}

// takeWindow returns the window's bucket counts (the last entry is the
// +Inf overflow), sum and observation count, then resets the window.
func (h *Histogram) takeWindow() (counts []int64, sum float64, n int64) {
	if h == nil {
		return nil, 0, 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	counts = append([]int64(nil), h.counts...)
	sum, n = h.sum, h.n
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.sum, h.n = 0, 0
	return counts, sum, n
}

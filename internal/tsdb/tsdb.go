// Package tsdb is the reproduction's deterministic metrics plane: a
// registry of counters, gauges and windowed histograms, sampled on
// virtual-clock ticks into bounded ring-buffer time series.
//
// It plays the monitoring role the paper delegates to MonALISA and the
// Grid Catalog, but under the repo's determinism rules: every timestamp
// comes from a vtime.Clock (never the wall clock), sampling order is
// the sorted metric-name order, and exports are sorted — so the same
// seeded run under a Manual clock produces byte-identical JSONL, the
// same guarantee the trace package gives for spans.
//
// Like trace, the whole plane is nil-safe: a nil *Registry (metrics
// disabled) accepts every call as a no-op, and the instruments it hands
// out are nil pointers whose methods are no-ops, so instrumented code
// pays one nil check and nothing else when metrics are off.
package tsdb

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultSeriesLimit bounds each series' ring buffer when the registry
// is built with no explicit limit: a bench-scale run sampling every
// virtual minute emits tens of points per series, and even a full-scale
// multi-hour run stays well under 8k samples.
const DefaultSeriesLimit = 1 << 13

// Point is one sample of one series: a virtual-time timestamp and a
// value.
type Point struct {
	T time.Time `json:"t"`
	V float64   `json:"v"`
}

// Counter is a monotonically-increasing count. Sampling records the
// cumulative value; use Rate to turn the series into per-second rates.
// A nil *Counter ignores every call.
type Counter struct {
	v atomic.Int64
}

// Add increases the counter by d (negative deltas are ignored: a
// counter only goes up).
func (c *Counter) Add(d int64) {
	if c == nil || d < 0 {
		return
	}
	c.v.Add(d)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current cumulative count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable instantaneous value. A nil *Gauge ignores every
// call.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// metricKind tags what a registered name refers to.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// Registry holds named instruments and their sampled series. Build one
// per run with New; a nil *Registry disables the whole plane at zero
// cost.
type Registry struct {
	// sampleMu serializes whole Sample calls so concurrent samplers
	// cannot interleave their appends.
	sampleMu sync.Mutex

	mu       sync.Mutex
	limit    int
	kinds    map[string]metricKind
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func(now time.Time) float64
	hists    map[string]*Histogram
	names    []string // sorted instrument names, the sampling order
	series   map[string]*series
}

// New returns a registry whose series each hold at most limit points
// (<= 0 uses DefaultSeriesLimit); once full, the oldest points are
// overwritten and counted as dropped.
func New(limit int) *Registry {
	if limit <= 0 {
		limit = DefaultSeriesLimit
	}
	return &Registry{
		limit:    limit,
		kinds:    make(map[string]metricKind),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		gaugeFns: make(map[string]func(time.Time) float64),
		hists:    make(map[string]*Histogram),
		series:   make(map[string]*series),
	}
}

// registerLocked claims name for kind. It returns false when the name
// is already taken by a different kind — the caller then hands back a
// detached instrument (usable, never sampled) instead of panicking.
// Caller holds r.mu.
func (r *Registry) registerLocked(name string, kind metricKind) (fresh, ok bool) {
	if existing, taken := r.kinds[name]; taken {
		return false, existing == kind
	}
	r.kinds[name] = kind
	i := sort.SearchStrings(r.names, name)
	r.names = append(r.names, "")
	copy(r.names[i+1:], r.names[i:])
	r.names[i] = name
	return true, true
}

// Counter returns the counter registered under name, creating it on
// first use. If the name is already a different kind, a detached
// counter is returned: it works but is never sampled.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fresh, ok := r.registerLocked(name, kindCounter)
	if !ok {
		return &Counter{}
	}
	if fresh {
		r.counters[name] = &Counter{}
	}
	return r.counters[name]
}

// Gauge returns the settable gauge registered under name, creating it
// on first use (detached on a kind collision, as with Counter).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fresh, ok := r.registerLocked(name, kindGauge)
	if !ok {
		return &Gauge{}
	}
	if fresh {
		r.gauges[name] = &Gauge{}
	}
	return r.gauges[name]
}

// GaugeFunc registers a callback evaluated at every sample tick with
// the sample's virtual timestamp. The callback must be deterministic
// given the virtual time, must not call back into the registry, and
// should be cheap — it runs on the sampler's goroutine. Re-registering
// an existing name replaces the callback; a kind collision is ignored.
func (r *Registry) GaugeFunc(name string, fn func(now time.Time) float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.registerLocked(name, kindGaugeFunc); !ok {
		return
	}
	r.gaugeFns[name] = fn
}

// Histogram returns the windowed histogram registered under name,
// creating it with the given bucket upper bounds on first use. Bounds
// are sanitized (sorted, deduplicated, non-finite dropped; empty falls
// back to DefBuckets) so the layout is always fixed and valid. On a
// kind collision a detached histogram is returned.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	fresh, ok := r.registerLocked(name, kindHistogram)
	if !ok {
		return newHistogram(name, bounds)
	}
	if fresh {
		r.hists[name] = newHistogram(name, bounds)
	}
	return r.hists[name]
}

// Exemplars returns the named histogram's per-bucket exemplars (see
// Histogram.Exemplars), or nil when the name is not a histogram.
func (r *Registry) Exemplars(name string) []Exemplar {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	h := r.hists[name]
	r.mu.Unlock()
	return h.Exemplars()
}

// sampleOp is one instrument's slot in a sampling pass.
type sampleOp struct {
	name    string
	kind    metricKind
	counter *Counter
	gauge   *Gauge
	fn      func(time.Time) float64
	hist    *Histogram
}

// Sample records one point per instrument at the given virtual time:
// counters their cumulative count, gauges their current value, gauge
// funcs their evaluation at now, and histograms their window since the
// previous sample (per-bucket counts plus /count and /sum, after which
// the window resets). Instruments are visited in sorted-name order, so
// a deterministic run appends deterministically.
func (r *Registry) Sample(now time.Time) {
	if r == nil {
		return
	}
	r.sampleMu.Lock()
	defer r.sampleMu.Unlock()

	r.mu.Lock()
	ops := make([]sampleOp, 0, len(r.names))
	for _, name := range r.names {
		op := sampleOp{name: name, kind: r.kinds[name]}
		switch op.kind {
		case kindCounter:
			op.counter = r.counters[name]
		case kindGauge:
			op.gauge = r.gauges[name]
		case kindGaugeFunc:
			op.fn = r.gaugeFns[name]
		case kindHistogram:
			op.hist = r.hists[name]
		}
		ops = append(ops, op)
	}
	r.mu.Unlock()

	// Evaluate outside the registry lock: gauge funcs reach into other
	// subsystems (and their locks) and must never nest under r.mu.
	type sampled struct {
		name string
		v    float64
	}
	out := make([]sampled, 0, len(ops))
	for _, op := range ops {
		switch op.kind {
		case kindCounter:
			out = append(out, sampled{op.name, float64(op.counter.Value())})
		case kindGauge:
			out = append(out, sampled{op.name, op.gauge.Value()})
		case kindGaugeFunc:
			out = append(out, sampled{op.name, op.fn(now)})
		case kindHistogram:
			counts, sum, n := op.hist.takeWindow()
			for i, b := range op.hist.Bounds() {
				out = append(out, sampled{op.name + "/le/" + bucketLabel(b), float64(counts[i])})
			}
			out = append(out, sampled{op.name + "/le/inf", float64(counts[len(counts)-1])})
			out = append(out, sampled{op.name + "/count", float64(n)})
			out = append(out, sampled{op.name + "/sum", sum})
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range out {
		v := s.v
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // keep every exported point JSON-encodable
		}
		sr, ok := r.series[s.name]
		if !ok {
			sr = &series{name: s.name, limit: r.limit}
			r.series[s.name] = sr
		}
		sr.add(Point{T: now, V: v})
	}
}

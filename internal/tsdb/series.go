package tsdb

import (
	"sort"
	"strconv"
)

// series is one metric's bounded ring of points. All access goes
// through the registry's lock; the type itself is not concurrency-safe.
type series struct {
	limit int
	buf   []Point
	head  int // index of the oldest point once the ring is full
}

// add appends a point, overwriting the oldest once the ring is full.
func (s *series) add(p Point) {
	if len(s.buf) < s.limit {
		s.buf = append(s.buf, p)
		return
	}
	s.buf[s.head] = p
	s.head = (s.head + 1) % s.limit
}

// points returns the held points oldest-first, as a copy.
func (s *series) points() []Point {
	out := make([]Point, 0, len(s.buf))
	out = append(out, s.buf[s.head:]...)
	out = append(out, s.buf[:s.head]...)
	return out
}

// SeriesDump is one series' name and points, the unit Export returns
// and the JSONL sink serializes.
type SeriesDump struct {
	Name string
	// Points is the retained window, oldest first.
	Points []Point
}

// SeriesNames returns every series name seen so far, sorted. Histogram
// instruments appear through their derived series (name/le/..., /count,
// /sum); instruments never yet sampled do not appear.
func (r *Registry) SeriesNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.series))
	for name := range r.series {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Points returns a copy of one series' retained points, oldest first
// (nil for unknown series).
func (r *Registry) Points(name string) []Point {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.series[name]
	if !ok {
		return nil
	}
	return s.points()
}

// Export returns a copy of every series, sorted by name — the
// deterministic dump the JSONL writer and digruber-top consume.
func (r *Registry) Export() []SeriesDump {
	if r == nil {
		return nil
	}
	names := r.SeriesNames()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SeriesDump, 0, len(names))
	for _, name := range names {
		s := r.series[name]
		out = append(out, SeriesDump{Name: name, Points: s.points()})
	}
	return out
}

// bucketLabel renders a histogram bound as a stable series-name
// component ("0.25", "5", ...).
func bucketLabel(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

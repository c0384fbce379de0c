package tsdb

import (
	"math"
	"sort"
	"strings"
	"time"
)

// Latest returns a series' most recent point.
func (r *Registry) Latest(name string) (Point, bool) {
	pts := r.Points(name)
	if len(pts) == 0 {
		return Point{}, false
	}
	return pts[len(pts)-1], true
}

// NameValue is one series' latest value, as returned by LatestByPrefix.
type NameValue struct {
	Name string
	V    float64
}

// LatestByPrefix returns the latest value of every series whose name
// starts with prefix, sorted by name — the snapshot a decision point
// attaches to its StatusReply.
func (r *Registry) LatestByPrefix(prefix string) []NameValue {
	if r == nil {
		return nil
	}
	var out []NameValue
	for _, name := range r.SeriesNames() {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		if p, ok := r.Latest(name); ok {
			out = append(out, NameValue{Name: name, V: p.V})
		}
	}
	return out
}

// Range returns the points of a series with from <= T <= to, oldest
// first.
func (r *Registry) Range(name string, from, to time.Time) []Point {
	var out []Point
	for _, p := range r.Points(name) {
		if p.T.Before(from) || p.T.After(to) {
			continue
		}
		out = append(out, p)
	}
	return out
}

// Frame is a set of series aligned on shared sample timestamps.
// Values[name][i] corresponds to Times[i]; NaN marks a series with no
// point at that timestamp.
type Frame struct {
	Times  []time.Time
	Values map[string][]float64
}

// Align joins the named series on the union of their timestamps. All
// registry series are stamped by the same Sample calls, so aligned
// series normally share every timestamp; NaN fills genuine gaps (a
// series registered mid-run, or rings that wrapped differently).
func (r *Registry) Align(names ...string) Frame {
	points := make(map[string][]Point, len(names))
	stamps := make(map[int64]time.Time)
	for _, name := range names {
		pts := r.Points(name)
		points[name] = pts
		for _, p := range pts {
			stamps[p.T.UnixNano()] = p.T
		}
	}
	keys := make([]int64, 0, len(stamps))
	for k := range stamps {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	f := Frame{Times: make([]time.Time, len(keys)), Values: make(map[string][]float64, len(names))}
	index := make(map[int64]int, len(keys))
	for i, k := range keys {
		f.Times[i] = stamps[k]
		index[k] = i
	}
	for _, name := range names {
		col := make([]float64, len(keys))
		for i := range col {
			col[i] = math.NaN()
		}
		for _, p := range points[name] {
			col[index[p.T.UnixNano()]] = p.V
		}
		f.Values[name] = col
	}
	return f
}

// WindowRate returns the mean per-second rate of a cumulative series
// (a sampled Counter) over the trailing window ending at now: the sum of
// the increases between successive points over the time the points span.
// A drop (a counter reset, e.g. a broker restart whose fresh server
// counts from zero) counts the new value as an increase from zero, as
// Prometheus's rate does — so a restarted point's activity is not hidden
// for the window that spans its restart, and the rate is never negative.
// Fewer than two points in the window yield 0: no evidence of activity.
// This is the scaling controller's load-signal primitive (shed, expired
// and demand rates).
func (r *Registry) WindowRate(name string, now time.Time, window time.Duration) float64 {
	pts := r.Range(name, now.Add(-window), now)
	if len(pts) < 2 {
		return 0
	}
	dt := pts[len(pts)-1].T.Sub(pts[0].T).Seconds()
	if dt <= 0 {
		return 0
	}
	inc := 0.0
	for i := 1; i < len(pts); i++ {
		if d := pts[i].V - pts[i-1].V; d >= 0 {
			inc += d
		} else {
			inc += pts[i].V
		}
	}
	return inc / dt
}

// WindowMean returns the mean of a series over the trailing window
// ending at now (0 with no points) — the smoothed form of a sampled
// gauge, for signals like queue depth where a single spiky sample
// should not trigger a scaling action by itself.
func (r *Registry) WindowMean(name string, now time.Time, window time.Duration) float64 {
	return Mean(r.Range(name, now.Add(-window), now))
}

// Mean returns the arithmetic mean of the points' values (0 for none).
func Mean(pts []Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range pts {
		sum += p.V
	}
	return sum / float64(len(pts))
}

// Max returns the largest value among the points (0 for none).
func Max(pts []Point) float64 {
	max := 0.0
	for i, p := range pts {
		if i == 0 || p.V > max {
			max = p.V
		}
	}
	return max
}

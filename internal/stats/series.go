package stats

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Sample is one timestamped observation.
type Sample struct {
	At    time.Time
	Value float64
}

// Series is an ordered collection of samples, the raw material for the
// paper's per-figure curves (response time over the run, throughput over
// the run, number of concurrent clients over the run).
type Series struct {
	Samples []Sample
}

// Add appends a sample. Samples may arrive out of order; Bucketize sorts.
func (s *Series) Add(at time.Time, v float64) {
	s.Samples = append(s.Samples, Sample{At: at, Value: v})
}

// Bucket is one aggregation window of a series; window i of Bucketize
// starts i widths after its origin.
type Bucket struct {
	Count int
	Mean  float64
	Max   float64
	Sum   float64
}

// Bucketize groups samples into fixed windows of width w starting at
// origin and returns per-window aggregates. Empty windows between the
// first and last sample are included with Count == 0 so plotted curves
// keep their time axis.
func (s *Series) Bucketize(origin time.Time, w time.Duration) []Bucket {
	if len(s.Samples) == 0 || w <= 0 {
		return nil
	}
	samples := append([]Sample(nil), s.Samples...)
	sort.Slice(samples, func(i, j int) bool { return samples[i].At.Before(samples[j].At) })

	idx := func(at time.Time) int {
		d := at.Sub(origin)
		if d < 0 {
			return 0
		}
		return int(d / w)
	}
	last := idx(samples[len(samples)-1].At)
	buckets := make([]Bucket, last+1)
	for _, smp := range samples {
		b := &buckets[idx(smp.At)]
		b.Count++
		b.Sum += smp.Value
		if smp.Value > b.Max || b.Count == 1 {
			b.Max = smp.Value
		}
	}
	for i := range buckets {
		if buckets[i].Count > 0 {
			buckets[i].Mean = buckets[i].Sum / float64(buckets[i].Count)
		}
	}
	return buckets
}

// Render prints the bucketized series as aligned text columns: one row
// per window with the window offset in seconds and the aggregate. It is
// the textual stand-in for the paper's figures.
func Render(origin time.Time, w time.Duration, curves map[string][]float64) string {
	names := make([]string, 0, len(curves))
	n := 0
	//lint:allow mapiter -- names are sorted right below; n is a max, which is order-independent
	for name, vals := range curves {
		names = append(names, name)
		if len(vals) > n {
			n = len(vals)
		}
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%10s", "t(s)")
	for _, name := range names {
		fmt.Fprintf(&b, " %14s", name)
	}
	b.WriteByte('\n')
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%10.0f", (time.Duration(i) * w).Seconds())
		for _, name := range names {
			vals := curves[name]
			if i < len(vals) {
				fmt.Fprintf(&b, " %14.3f", vals[i])
			} else {
				fmt.Fprintf(&b, " %14s", "")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

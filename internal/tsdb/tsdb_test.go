package tsdb

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"
	"time"

	"digruber/internal/vtime"
)

var epoch = time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)

func at(s int) time.Time { return epoch.Add(time.Duration(s) * time.Second) }

func TestCounterAndGaugeSampling(t *testing.T) {
	r := New(0)
	c := r.Counter("reqs")
	g := r.Gauge("depth")

	c.Add(3)
	g.Set(7.5)
	r.Sample(at(1))
	c.Inc()
	g.Set(2)
	r.Sample(at(2))

	want := map[string][]Point{
		"reqs":  {{at(1), 3}, {at(2), 4}},
		"depth": {{at(1), 7.5}, {at(2), 2}},
	}
	for name, pts := range want {
		got := r.Points(name)
		if len(got) != len(pts) {
			t.Fatalf("%s: got %d points, want %d", name, len(got), len(pts))
		}
		for i := range pts {
			if !got[i].T.Equal(pts[i].T) || got[i].V != pts[i].V {
				t.Errorf("%s[%d] = %+v, want %+v", name, i, got[i], pts[i])
			}
		}
	}
	// Counters never go down.
	c.Add(-5)
	if c.Value() != 4 {
		t.Errorf("counter after negative Add = %d, want 4", c.Value())
	}
}

func TestGaugeFuncSeesSampleTime(t *testing.T) {
	r := New(0)
	r.GaugeFunc("age_s", func(now time.Time) float64 { return now.Sub(epoch).Seconds() })
	r.Sample(at(10))
	r.Sample(at(25))
	pts := r.Points("age_s")
	if len(pts) != 2 || pts[0].V != 10 || pts[1].V != 25 {
		t.Fatalf("gauge func points = %+v, want values 10, 25", pts)
	}
}

func TestNilRegistryAndInstrumentsAreSafe(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(1)
	r.Gauge("y").Set(2)
	r.GaugeFunc("z", func(time.Time) float64 { return 1 })
	r.Histogram("h", nil).Observe(1)
	r.Sample(at(1))
	if r.SeriesNames() != nil || r.Points("x") != nil || r.Export() != nil {
		t.Fatal("nil registry leaked state")
	}
	if _, ok := r.Latest("x"); ok {
		t.Fatal("nil registry has a latest point")
	}
	if got := r.LatestByPrefix(""); got != nil {
		t.Fatalf("nil registry LatestByPrefix = %v", got)
	}
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil registry JSONL: err=%v len=%d", err, buf.Len())
	}
}

func TestKindCollisionReturnsDetached(t *testing.T) {
	r := New(0)
	c := r.Counter("m")
	d := r.Counter("m")
	if c != d {
		t.Fatal("same-kind re-registration should return the same counter")
	}
	g := r.Gauge("m") // wrong kind: detached
	g.Set(99)
	c.Add(1)
	r.Sample(at(1))
	if p, _ := r.Latest("m"); p.V != 1 {
		t.Fatalf("collision leaked into series: latest = %v, want 1 (counter)", p.V)
	}
}

func TestRingBoundDropsOldest(t *testing.T) {
	r := New(3)
	c := r.Counter("c")
	for i := 1; i <= 5; i++ {
		c.Inc()
		r.Sample(at(i))
	}
	pts := r.Points("c")
	if len(pts) != 3 {
		t.Fatalf("got %d points, want 3", len(pts))
	}
	for i, want := range []float64{3, 4, 5} {
		if pts[i].V != want {
			t.Errorf("pts[%d].V = %v, want %v", i, pts[i].V, want)
		}
	}
	dumps := r.Export()
	if len(dumps) != 1 || dumps[0].Dropped != 2 {
		t.Fatalf("export = %+v, want 1 series with 2 dropped", dumps)
	}
}

func TestHistogramWindowsReset(t *testing.T) {
	r := New(0)
	h := r.Histogram("lat", []float64{1, 5})
	h.Observe(0.5)
	h.Observe(3)
	h.Observe(100)
	r.Sample(at(1))
	// Second window: empty.
	r.Sample(at(2))

	checks := map[string][]float64{
		"lat/le/1":   {1, 0},
		"lat/le/5":   {1, 0},
		"lat/le/inf": {1, 0},
		"lat/count":  {3, 0},
		"lat/sum":    {103.5, 0},
	}
	for name, want := range checks {
		pts := r.Points(name)
		if len(pts) != 2 || pts[0].V != want[0] || pts[1].V != want[1] {
			t.Errorf("%s = %+v, want values %v", name, pts, want)
		}
	}
}

func TestHistogramBoundsSanitized(t *testing.T) {
	r := New(0)
	h := r.Histogram("h", []float64{5, 1, 5, 1})
	if b := h.Bounds(); len(b) != 2 || b[0] != 1 || b[1] != 5 {
		t.Fatalf("bounds = %v, want [1 5]", b)
	}
	if b := newHistogram("t", nil).Bounds(); len(b) != len(DefBuckets) {
		t.Fatalf("empty bounds should fall back to DefBuckets, got %v", b)
	}
}

func TestJSONLDeterministicAndRoundTrips(t *testing.T) {
	build := func() *Registry {
		r := New(0)
		c := r.Counter("b/reqs")
		g := r.Gauge("a/depth")
		h := r.Histogram("c/lat", []float64{1})
		for i := 1; i <= 4; i++ {
			c.Add(int64(i))
			g.Set(float64(10 - i))
			h.Observe(float64(i))
			r.Sample(at(i))
		}
		return r
	}
	var buf1, buf2 bytes.Buffer
	if err := build().WriteJSONL(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSONL(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf1.Len() == 0 {
		t.Fatal("empty JSONL export")
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatal("identical runs produced different JSONL bytes")
	}

	var pts []SeriesPoint
	for dec := json.NewDecoder(&buf1); dec.More(); {
		var p SeriesPoint
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		pts = append(pts, p)
	}
	want := build().Flatten("")
	if len(pts) != len(want) {
		t.Fatalf("round trip: %d points, want %d", len(pts), len(want))
	}
	for i := range want {
		if pts[i].Series != want[i].Series || !pts[i].T.Equal(want[i].T) || pts[i].V != want[i].V {
			t.Fatalf("round trip[%d] = %+v, want %+v", i, pts[i], want[i])
		}
	}
	// Sorted by series name: a/* before b/* before c/*.
	if pts[0].Series != "a/depth" {
		t.Errorf("first series = %s, want a/depth", pts[0].Series)
	}
}

func TestSamplerOnManualClock(t *testing.T) {
	clock := vtime.NewManual(epoch)
	r := New(0)
	c := r.Counter("ticks")
	s := NewSampler(r, clock, time.Minute)
	s.Start()
	s.Start() // idempotent
	defer s.Stop()

	c.Inc()
	clock.Advance(time.Minute)
	waitFor(t, func() bool { return len(r.Points("ticks")) >= 1 })
	c.Inc()
	clock.Advance(time.Minute)
	waitFor(t, func() bool { return len(r.Points("ticks")) >= 2 })

	pts := r.Points("ticks")
	if len(pts) < 2 || pts[0].V != 1 || pts[1].V != 2 {
		t.Fatalf("sampled points = %+v, want 1 then 2", pts)
	}
	if !pts[0].T.Equal(epoch.Add(time.Minute)) {
		t.Errorf("first sample at %v, want %v (virtual time)", pts[0].T, epoch.Add(time.Minute))
	}
	s.Stop()
	s.Stop() // idempotent
	// Restartable.
	s.Start()
	clock.Advance(time.Minute)
	waitFor(t, func() bool { return len(r.Points("ticks")) >= 3 })
	s.Stop()
}

func TestConcurrentInstrumentsUnderSampling(t *testing.T) {
	r := New(0)
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{1, 2})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Inc()
				g.Set(float64(i))
				h.Observe(float64(i % 3))
			}
		}(w)
	}
	for i := 0; i < 20; i++ {
		r.Sample(at(i))
	}
	wg.Wait()
	r.Sample(at(100))
	if p, _ := r.Latest("c"); p.V != 2000 {
		t.Fatalf("final counter sample = %v, want 2000", p.V)
	}
	// All histogram windows must add up to every observation exactly once.
	total := 0.0
	for _, p := range r.Points("h/count") {
		total += p.V
	}
	if total != 2000 {
		t.Fatalf("histogram windows sum to %v observations, want 2000", total)
	}
}

func TestQueryHelpers(t *testing.T) {
	r := New(0)
	c := r.Counter("dp/a/reqs")
	g := r.Gauge("dp/b/depth")
	for i := 1; i <= 3; i++ {
		c.Add(10)
		g.Set(float64(i))
		r.Sample(at(i * 10))
	}

	if got := r.Range("dp/a/reqs", at(15), at(30)); len(got) != 2 {
		t.Errorf("Range returned %d points, want 2", len(got))
	}
	lv := r.LatestByPrefix("dp/a/")
	if len(lv) != 1 || lv[0].Name != "dp/a/reqs" || lv[0].V != 30 {
		t.Errorf("LatestByPrefix = %+v", lv)
	}

	f := r.Align("dp/a/reqs", "dp/b/depth", "missing")
	if len(f.Times) != 3 {
		t.Fatalf("aligned %d timestamps, want 3", len(f.Times))
	}
	if f.Values["dp/a/reqs"][2] != 30 || f.Values["dp/b/depth"][0] != 1 {
		t.Errorf("aligned values wrong: %+v", f.Values)
	}
	for _, v := range f.Values["missing"] {
		if !math.IsNaN(v) {
			t.Fatalf("missing series should align to NaN, got %v", v)
		}
	}

	if m := Mean(r.Points("dp/b/depth")); m != 2 {
		t.Errorf("Mean = %v, want 2", m)
	}
	if m := Max(r.Points("dp/b/depth")); m != 3 {
		t.Errorf("Max = %v, want 3", m)
	}
}

// waitFor busy-waits (with a real deadline) for an asynchronous
// condition driven by a virtual-clock goroutine.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

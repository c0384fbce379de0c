package tsdb

import (
	"math"
	"testing"
	"time"
)

func TestWindowRate(t *testing.T) {
	r := New(0)
	c := r.Counter("jobs")
	t0 := time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		c.Add(60) // 1/s at one sample per minute
		r.Sample(t0.Add(time.Duration(i) * time.Minute))
	}
	now := t0.Add(4 * time.Minute)

	// Full window: (300-60)/240s = 1/s.
	if got := r.WindowRate("jobs", now, 4*time.Minute); got != 1 {
		t.Fatalf("WindowRate full = %v, want 1", got)
	}
	// Narrow window sees only the last two points: still 1/s.
	if got := r.WindowRate("jobs", now, time.Minute); got != 1 {
		t.Fatalf("WindowRate narrow = %v, want 1", got)
	}
	// A window holding fewer than two points has no rate evidence.
	if got := r.WindowRate("jobs", now, 30*time.Second); got != 0 {
		t.Fatalf("WindowRate single-point = %v, want 0", got)
	}
	if got := r.WindowRate("missing", now, time.Minute); got != 0 {
		t.Fatalf("WindowRate missing series = %v, want 0", got)
	}
}

func TestWindowRateClampsCounterReset(t *testing.T) {
	r := New(0)
	g := r.Gauge("restarting")
	t0 := time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)
	g.Set(100)
	r.Sample(t0)
	g.Set(5) // a restart: the cumulative value fell
	r.Sample(t0.Add(time.Minute))
	if got := r.WindowRate("restarting", t0.Add(time.Minute), 2*time.Minute); got != 0 {
		t.Fatalf("rate across a reset = %v, want clamped 0", got)
	}
}

func TestWindowMeanAndMax(t *testing.T) {
	r := New(0)
	g := r.Gauge("queue")
	t0 := time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)
	for i, v := range []float64{2, 4, 12, 6} {
		g.Set(v)
		r.Sample(t0.Add(time.Duration(i) * time.Minute))
	}
	now := t0.Add(3 * time.Minute)

	if got := r.WindowMean("queue", now, 3*time.Minute); got != 6 {
		t.Fatalf("WindowMean = %v, want 6", got)
	}
	// Trailing window excludes the early samples.
	if got := r.WindowMean("queue", now, time.Minute); got != 9 {
		t.Fatalf("WindowMean narrow = %v, want 9", got)
	}
	if got := Max(r.Range("queue", now.Add(-3*time.Minute), now)); got != 12 {
		t.Fatalf("Max over the window = %v, want 12", got)
	}
	if got := r.WindowMean("missing", now, time.Minute); got != 0 {
		t.Fatalf("WindowMean missing = %v, want 0", got)
	}
}

// TestWindowRateResetAtBoundary pins the clamp's interaction with the
// window edge: a reset sitting exactly on the inclusive boundary sample
// clamps the whole window to 0, while a window starting one sample
// later never sees the reset and reads the clean post-restart rate.
func TestWindowRateResetAtBoundary(t *testing.T) {
	r := New(0)
	g := r.Gauge("reset")
	t0 := time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)
	for i, v := range []float64{100, 5, 65, 125} { // restart between samples 0 and 1
		g.Set(v)
		r.Sample(t0.Add(time.Duration(i) * time.Minute))
	}
	now := t0.Add(3 * time.Minute)

	// Window boundary exactly on the pre-reset sample (Range is
	// inclusive): first=100 > last=125 is fine, but a tighter window
	// landing on the reset pair must clamp.
	if got := r.WindowRate("reset", now, 3*time.Minute); got != 25.0/180 {
		t.Fatalf("WindowRate spanning reset = %v, want %v", got, 25.0/180)
	}
	// Boundary exactly on the post-reset sample: the reset is outside,
	// the recovery rate (125-5)/120s = 1/s reads clean.
	if got := r.WindowRate("reset", now, 2*time.Minute); got != 1 {
		t.Fatalf("WindowRate post-reset = %v, want 1", got)
	}
	// A window whose endpoints straddle only the falling edge clamps to
	// 0 rather than going negative.
	if got := r.WindowRate("reset", t0.Add(time.Minute), time.Minute); got != 0 {
		t.Fatalf("WindowRate across falling edge = %v, want 0", got)
	}
}

// TestWindowStatsEmptyAndSingle: registered-but-never-sampled and
// single-sample series are the controller's cold-start inputs; all
// three window statistics must read 0 or the lone value, never panic
// or NaN.
func TestWindowStatsEmptyAndSingle(t *testing.T) {
	r := New(0)
	g := r.Gauge("cold")
	t0 := time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)

	// Registered, never sampled.
	if got := r.WindowMean("cold", t0, time.Minute); got != 0 {
		t.Fatalf("WindowMean empty = %v, want 0", got)
	}
	if got := r.WindowRate("cold", t0, time.Minute); got != 0 {
		t.Fatalf("WindowRate empty = %v, want 0", got)
	}

	// Exactly one sample in the window.
	g.Set(7)
	r.Sample(t0)
	if got := r.WindowMean("cold", t0, time.Minute); got != 7 {
		t.Fatalf("WindowMean single = %v, want 7", got)
	}
	if got := r.WindowRate("cold", t0, time.Minute); got != 0 {
		t.Fatalf("WindowRate single = %v, want 0 (no rate evidence)", got)
	}
	// A window that excludes the lone sample is empty again.
	if got := r.WindowMean("cold", t0.Add(2*time.Minute), time.Minute); got != 0 {
		t.Fatalf("WindowMean excluded = %v, want 0", got)
	}
}

// TestAlignWithGaps: a series registered mid-run joins on the union of
// timestamps with NaN filling the samples it missed — the exact shape
// the SLO attainment join must tolerate when a histogram bucket series
// appears after traffic starts.
func TestAlignWithGaps(t *testing.T) {
	r := New(0)
	a := r.Gauge("a")
	t0 := time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)
	a.Set(1)
	r.Sample(t0)
	a.Set(2)
	r.Sample(t0.Add(time.Minute))
	b := r.Gauge("b") // appears mid-run
	a.Set(3)
	b.Set(30)
	r.Sample(t0.Add(2 * time.Minute))

	f := r.Align("a", "b")
	if len(f.Times) != 3 {
		t.Fatalf("aligned %d stamps, want 3", len(f.Times))
	}
	for i, want := range []float64{1, 2, 3} {
		if f.Values["a"][i] != want {
			t.Fatalf("a[%d] = %v, want %v", i, f.Values["a"][i], want)
		}
	}
	if !math.IsNaN(f.Values["b"][0]) || !math.IsNaN(f.Values["b"][1]) {
		t.Fatalf("b's missing samples = %v, %v, want NaN", f.Values["b"][0], f.Values["b"][1])
	}
	if f.Values["b"][2] != 30 {
		t.Fatalf("b[2] = %v, want 30", f.Values["b"][2])
	}
}

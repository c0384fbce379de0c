package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 {
		t.Fatalf("bad extremes: %+v", s)
	}
	if s.Median != 3 {
		t.Fatalf("median = %v, want 3", s.Median)
	}
	if !almostEqual(s.Mean, 3, 1e-12) {
		t.Fatalf("mean = %v, want 3", s.Mean)
	}
	if !almostEqual(s.StdDev, math.Sqrt(2), 1e-9) {
		t.Fatalf("stddev = %v, want sqrt(2)", s.StdDev)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Fatalf("empty summary not zero: %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Min != 7 || s.Max != 7 || s.Median != 7 || s.Mean != 7 || s.StdDev != 0 {
		t.Fatalf("single-element summary wrong: %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input mutated: %v", in)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 10}, {50, 5.5}, {25, 3.25}, {-5, 1}, {110, 10},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-9) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil) != 0")
	}
}

func TestSummaryPropertyInvariants(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r)
		}
		s := Summarize(xs)
		return s.Min <= s.Median && s.Median <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max &&
			s.StdDev >= 0 && s.N == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOnlineMatchesBatch(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	var o Online
	for i := range xs {
		xs[i] = r.NormFloat64()*10 + 5
		o.Add(xs[i])
	}
	batch := Summarize(xs)
	if o.N() != batch.N {
		t.Fatalf("n = %d, want %d", o.N(), batch.N)
	}
	if !almostEqual(o.Mean(), batch.Mean, 1e-9) {
		t.Fatalf("mean = %v, want %v", o.Mean(), batch.Mean)
	}
}

func TestSeriesBucketize(t *testing.T) {
	origin := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	var s Series
	s.Add(origin.Add(5*time.Second), 1)
	s.Add(origin.Add(15*time.Second), 3)
	s.Add(origin.Add(16*time.Second), 5)
	s.Add(origin.Add(45*time.Second), 2)
	buckets := s.Bucketize(origin, 10*time.Second)
	if len(buckets) != 5 {
		t.Fatalf("buckets = %d, want 5", len(buckets))
	}
	if buckets[0].Count != 1 || buckets[0].Mean != 1 {
		t.Fatalf("bucket0 = %+v", buckets[0])
	}
	if buckets[1].Count != 2 || buckets[1].Mean != 4 || buckets[1].Max != 5 {
		t.Fatalf("bucket1 = %+v", buckets[1])
	}
	if buckets[2].Count != 0 || buckets[3].Count != 0 {
		t.Fatal("gap buckets should be empty")
	}
	if buckets[4].Count != 1 {
		t.Fatalf("bucket4 = %+v", buckets[4])
	}
}

func TestSeriesBucketizeOutOfOrderAndBeforeOrigin(t *testing.T) {
	origin := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC)
	var s Series
	s.Add(origin.Add(25*time.Second), 2)
	s.Add(origin.Add(-5*time.Second), 9) // clamped into bucket 0
	s.Add(origin.Add(5*time.Second), 1)
	buckets := s.Bucketize(origin, 10*time.Second)
	if len(buckets) != 3 {
		t.Fatalf("buckets = %d, want 3", len(buckets))
	}
	if buckets[0].Count != 2 {
		t.Fatalf("bucket0 count = %d, want 2 (clamped early sample)", buckets[0].Count)
	}
}

func TestRenderContainsAllCurves(t *testing.T) {
	out := Render(time.Time{}, time.Second, map[string][]float64{
		"load":     {1, 2, 3},
		"response": {0.5, 0.6},
	})
	if len(out) == 0 {
		t.Fatal("empty render")
	}
	for _, want := range []string{"load", "response", "t(s)"} {
		if !contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestMeanMax(t *testing.T) {
	if Mean(nil) != 0 || Max(nil) != 0 {
		t.Fatal("empty Mean/Max should be 0")
	}
	if Mean([]float64{2, 4}) != 3 {
		t.Fatal("Mean wrong")
	}
	if Max([]float64{2, 9, 4}) != 9 {
		t.Fatal("Max wrong")
	}
}

package stats

import (
	"testing"
	"time"
)

// Edge cases around empty input, single samples, and exact window
// boundaries — the places aggregation code quietly goes wrong.

func TestPercentileEmptyAndSingle(t *testing.T) {
	if got := Percentile(nil, 95); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
	for _, p := range []float64{0, 1, 50, 99, 100} {
		if got := Percentile([]float64{7.5}, p); got != 7.5 {
			t.Errorf("Percentile([7.5], %v) = %v, want the single sample", p, got)
		}
	}
}

func TestPercentileClampsOutOfRange(t *testing.T) {
	xs := []float64{1, 2, 3}
	if got := Percentile(xs, -10); got != 1 {
		t.Errorf("p<0 = %v, want min", got)
	}
	if got := Percentile(xs, 250); got != 3 {
		t.Errorf("p>100 = %v, want max", got)
	}
}

func TestPercentileInterpolatesBetweenRanks(t *testing.T) {
	// With two samples, p75 sits three quarters of the way between them.
	if got := Percentile([]float64{0, 4}, 75); got != 3 {
		t.Errorf("p75 of {0,4} = %v, want 3", got)
	}
}

func TestEmptySeries(t *testing.T) {
	var s Series
	if got := s.Bucketize(time.Unix(0, 0), time.Minute); got != nil {
		t.Errorf("Bucketize of empty series = %v, want nil", got)
	}
}

func TestBucketizeRejectsNonPositiveWindow(t *testing.T) {
	var s Series
	s.Add(time.Unix(100, 0), 1)
	if got := s.Bucketize(time.Unix(0, 0), 0); got != nil {
		t.Errorf("w=0 returned %v", got)
	}
	if got := s.Bucketize(time.Unix(0, 0), -time.Second); got != nil {
		t.Errorf("w<0 returned %v", got)
	}
}

func TestBucketizeExactWindowBoundaries(t *testing.T) {
	origin := time.Unix(1000, 0)
	w := time.Minute
	var s Series
	s.Add(origin, 1)                        // first instant of window 0
	s.Add(origin.Add(w-time.Nanosecond), 2) // last instant of window 0
	s.Add(origin.Add(w), 3)                 // first instant of window 1
	s.Add(origin.Add(3*w), 4)               // window 3, leaving window 2 empty
	buckets := s.Bucketize(origin, w)
	if len(buckets) != 4 {
		t.Fatalf("got %d buckets, want 4", len(buckets))
	}
	if buckets[0].Count != 2 || buckets[0].Sum != 3 {
		t.Errorf("window 0 = %+v, want both boundary samples", buckets[0])
	}
	if buckets[1].Count != 1 || buckets[1].Mean != 3 {
		t.Errorf("window 1 = %+v, want the on-boundary sample", buckets[1])
	}
	if buckets[2].Count != 0 || buckets[2].Mean != 0 {
		t.Errorf("empty window 2 = %+v", buckets[2])
	}
}

func TestBucketizeSingleSample(t *testing.T) {
	origin := time.Unix(0, 0)
	var s Series
	s.Add(origin.Add(90*time.Second), 5)
	buckets := s.Bucketize(origin, time.Minute)
	if len(buckets) != 2 {
		t.Fatalf("got %d buckets, want 2 (empty leading window kept)", len(buckets))
	}
	if buckets[0].Count != 0 {
		t.Errorf("leading window = %+v, want empty", buckets[0])
	}
	if buckets[1].Count != 1 || buckets[1].Mean != 5 || buckets[1].Max != 5 {
		t.Errorf("sample window = %+v", buckets[1])
	}
}

func TestBucketizeMaxTracksNegativeValues(t *testing.T) {
	// The first sample must seed Max even when negative.
	var s Series
	origin := time.Unix(0, 0)
	s.Add(origin, -4)
	s.Add(origin, -9)
	buckets := s.Bucketize(origin, time.Minute)
	if len(buckets) != 1 || buckets[0].Max != -4 {
		t.Errorf("buckets = %+v, want Max=-4", buckets)
	}
}

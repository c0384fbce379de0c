package digruber

import (
	"testing"
	"time"

	"digruber/internal/vtime"
	"digruber/internal/wire"
)

func TestSaturationDetectorRates(t *testing.T) {
	clock := vtime.NewManual(epoch)
	d := NewSaturationDetector(2, clock)
	// Two workers serving in 1s each calibrate to 2 req/s.
	served := wire.Stats{ServiceMean: 1}
	// 60 arrivals in the one-minute window = 1 req/s: under capacity.
	for i := 0; i < 60; i++ {
		d.ObserveArrival()
		clock.Advance(time.Second)
	}
	obs, cap0, sat := d.Assess(served)
	if sat {
		t.Fatalf("saturated at %v req/s with capacity %v", obs, cap0)
	}
	// Burst to 5 req/s for a whole window: over capacity.
	for i := 0; i < 300; i++ {
		d.ObserveArrival()
		clock.Advance(200 * time.Millisecond)
	}
	obs, _, sat = d.Assess(served)
	if !sat {
		t.Fatalf("not saturated at %v req/s with capacity 2", obs)
	}
	if d.Events() != 1 {
		t.Fatalf("events = %d, want 1", d.Events())
	}
}

func TestSaturationWindowForgets(t *testing.T) {
	clock := vtime.NewManual(epoch)
	d := NewSaturationDetector(1, clock)
	served := wire.Stats{ServiceMean: 1} // one worker, 1s each: 1 req/s
	for i := 0; i < 100; i++ {
		d.ObserveArrival()
	}
	if _, _, sat := d.Assess(served); !sat {
		t.Fatal("burst not detected")
	}
	clock.Advance(saturationWindow + time.Second)
	if _, _, sat := d.Assess(served); sat {
		t.Fatal("saturation persisted after window elapsed")
	}
	// A new episode counts as a second event.
	for i := 0; i < 100; i++ {
		d.ObserveArrival()
	}
	d.Assess(served)
	if d.Events() != 2 {
		t.Fatalf("events = %d, want 2", d.Events())
	}
}

func TestSaturationQueueThreshold(t *testing.T) {
	clock := vtime.NewManual(epoch)
	d := NewSaturationDetector(4, clock)
	// Threshold = 3×4 = 12 queued.
	if _, _, sat := d.Assess(wire.Stats{Queued: 11}); sat {
		t.Fatal("saturated below queue threshold")
	}
	if _, _, sat := d.Assess(wire.Stats{Queued: 12}); !sat {
		t.Fatal("not saturated at queue threshold")
	}
}

func TestSaturationSelfCalibration(t *testing.T) {
	clock := vtime.NewManual(epoch)
	d := NewSaturationDetector(4, clock)
	// Mean service time 2s with 4 workers → capacity 2 req/s.
	_, cap0, _ := d.Assess(wire.Stats{ServiceMean: 2})
	if cap0 != 2 {
		t.Fatalf("self-calibrated capacity = %v, want 2", cap0)
	}
}

// TestSaturationPruneIsAmortised: ObserveArrival runs on every Query and
// Schedule, so ageing timestamps out of a full window must not cost a
// copy of the whole window per arrival — it did (93 ns per arrival while
// a one-minute window filled at 13 000 arrivals/s, 1.47 ms once it was
// full). The floor is on the ratio, which the host's speed cancels out
// of; a scheduler hiccup gets three attempts to stay out of it.
func TestSaturationPruneIsAmortised(t *testing.T) {
	const (
		perWindow = 50000
		window    = saturationWindow
	)
	var fill, full time.Duration
	for attempt := 0; attempt < 3; attempt++ {
		clock := vtime.NewManual(epoch)
		d := NewSaturationDetector(1, clock)
		observe := func(n int) time.Duration {
			start := time.Now()
			for i := 0; i < n; i++ {
				d.ObserveArrival()
				clock.Advance(window / perWindow)
			}
			return time.Since(start)
		}
		fill = observe(perWindow)
		// Two windows' worth, so the compaction the dead prefix waits for
		// is inside the measurement.
		full = observe(2*perWindow) / 2
		if got, want := d.ObservedRate(), perWindow/window.Seconds(); got != want {
			t.Fatalf("observed rate with a full window = %v, want %v", got, want)
		}
		if full <= 4*fill {
			return
		}
	}
	t.Fatalf("%d arrivals took %v while the window filled and %v once it was full; want within 4x", perWindow, fill, full)
}

func TestDecisionPointSaturatesUnderBurst(t *testing.T) {
	clock := vtime.NewReal()
	mem := wire.NewMem()
	dp, err := New(Config{
		Name: "dp-slow", Addr: "dp-slow", Transport: mem, Clock: clock,
		Profile: wire.StackProfile{Name: "slow", BaseOverhead: 200 * time.Millisecond, MaxConcurrent: 1, QueueLimit: 64}, // one worker: saturated at 3 queued
	})
	if err != nil {
		t.Fatal(err)
	}
	dp.Engine().UpdateSites(testStatuses(100), clock.Now())
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()

	// Fire 8 concurrent queries at a 1-worker container: queue builds.
	results := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			cli := wire.NewClient(wire.ClientConfig{
				Node: "c", ServerNode: "dp-slow", Addr: "dp-slow", Transport: mem, Clock: clock,
			})
			defer cli.Close()
			_, err := wire.Call[QueryArgs, QueryReply](cli, MethodQuery, QueryArgs{Owner: "atlas", CPUs: 1}, 10*time.Second)
			results <- err
		}(i)
	}
	sawSaturated := false
	for i := 0; i < 100; i++ {
		if st := dp.Status(); st.Saturated {
			sawSaturated = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < 8; i++ {
		<-results
	}
	if !sawSaturated {
		t.Fatal("decision point never reported saturation under burst")
	}
}

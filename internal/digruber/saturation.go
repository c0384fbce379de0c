package digruber

import (
	"sync"
	"time"

	"digruber/internal/vtime"
	"digruber/internal/wire"
)

// SaturationConfig tunes the per-decision-point saturation detector of
// Section 5: "use performance models created by DiPerF to establish an
// upper bound on the number of transactions that a decision point can
// handle per time interval".
type SaturationConfig struct {
	// Window is the sliding window over which the arrival rate is
	// measured (default 1 minute).
	Window time.Duration
}

// SaturationDetector watches one decision point's request stream and
// decides when the point has reached its saturation state. The verdict
// rides Status to the third-party monitor (the Controller), which
// decides whether to deploy additional decision points.
type SaturationDetector struct {
	window time.Duration
	// workers is the container's parallelism: the detector calibrates
	// capacity as workers / mean service time, and declares saturation
	// whenever 3×workers requests wait for one, regardless of rates.
	workers int
	clock   vtime.Clock

	mu sync.Mutex
	// arrivals[head:] are the arrival timestamps within Window, oldest
	// first; arrivals[:head] have aged out and wait for compaction.
	arrivals []time.Time
	head     int
	events   int // transitions into saturation
	wasSat   bool
}

// NewSaturationDetector returns a detector for a container of the given
// parallelism.
func NewSaturationDetector(cfg SaturationConfig, workers int, clock vtime.Clock) *SaturationDetector {
	if cfg.Window <= 0 {
		cfg.Window = time.Minute
	}
	return &SaturationDetector{window: cfg.Window, workers: workers, clock: clock}
}

// ObserveArrival records one request arrival.
func (d *SaturationDetector) ObserveArrival() {
	now := d.clock.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.arrivals = append(d.arrivals, now)
	d.pruneLocked(now)
}

// pruneLocked ages out the timestamps older than Window by moving head
// past them. The dead prefix is copied away only once it is at least as
// long as the live part, so each copied timestamp pays for one aged-out
// one and an arrival costs O(1) amortised however full the window is.
func (d *SaturationDetector) pruneLocked(now time.Time) {
	cut := now.Add(-d.window)
	for d.head < len(d.arrivals) && d.arrivals[d.head].Before(cut) {
		d.head++
	}
	if d.head > 0 && d.head >= len(d.arrivals)-d.head {
		d.arrivals = d.arrivals[:copy(d.arrivals, d.arrivals[d.head:])]
		d.head = 0
	}
}

// ObservedRate reports the arrival rate over the sliding window, req/s.
func (d *SaturationDetector) ObservedRate() float64 {
	now := d.clock.Now()
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pruneLocked(now)
	return float64(len(d.arrivals)-d.head) / d.window.Seconds()
}

// Assess combines the arrival rate with the service stack's state and
// returns (observed rate, capacity rate, saturated). A decision point is
// saturated when its accept queue has built past the threshold or its
// arrival rate exceeds the capacity its own service times imply (zero,
// and no verdict from rates, until a request has been served).
func (d *SaturationDetector) Assess(ss wire.Stats) (observed, capacity float64, saturated bool) {
	observed = d.ObservedRate()
	if ss.ServiceMean > 0 {
		capacity = float64(d.workers) / ss.ServiceMean
	}
	saturated = ss.Queued >= 3*d.workers ||
		(capacity > 0 && observed > capacity)

	d.mu.Lock()
	if saturated && !d.wasSat {
		d.events++
	}
	d.wasSat = saturated
	d.mu.Unlock()
	return observed, capacity, saturated
}

// Events reports how many distinct saturation episodes have started.
func (d *SaturationDetector) Events() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.events
}

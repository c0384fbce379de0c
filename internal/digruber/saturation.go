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
	// CapacityRate is the DiPerF-calibrated sustainable request rate in
	// req/s. 0 means self-calibrate from observed service times
	// (workers / mean service time).
	CapacityRate float64
	// Window is the sliding window over which the arrival rate is
	// measured.
	Window time.Duration
	// QueueThreshold declares saturation whenever this many requests are
	// waiting for a worker, regardless of rates. 0 means 3× the
	// container's worker count.
	QueueThreshold int
	// Workers is the container's parallelism, used for defaults and
	// self-calibration.
	Workers int
}

func (c *SaturationConfig) setDefaults() {
	if c.Window <= 0 {
		c.Window = time.Minute
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.QueueThreshold <= 0 {
		c.QueueThreshold = 3 * c.Workers
	}
}

// SaturationDetector watches one decision point's request stream and
// decides when the point has reached its saturation state. The verdict
// rides Status to the third-party monitor (the Controller), which
// decides whether to deploy additional decision points.
type SaturationDetector struct {
	cfg   SaturationConfig
	clock vtime.Clock

	mu sync.Mutex
	// arrivals[head:] are the arrival timestamps within Window, oldest
	// first; arrivals[:head] have aged out and wait for compaction.
	arrivals []time.Time
	head     int
	events   int // transitions into saturation
	wasSat   bool
}

// NewSaturationDetector returns a detector with the given config.
func NewSaturationDetector(cfg SaturationConfig, clock vtime.Clock) *SaturationDetector {
	cfg.setDefaults()
	return &SaturationDetector{cfg: cfg, clock: clock}
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
	cut := now.Add(-d.cfg.Window)
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
	return float64(len(d.arrivals)-d.head) / d.cfg.Window.Seconds()
}

// Assess combines the arrival rate with the service stack's state and
// returns (observed rate, capacity rate, saturated). A decision point is
// saturated when its accept queue has built past the threshold or its
// arrival rate exceeds the modeled capacity.
func (d *SaturationDetector) Assess(ss wire.Stats) (observed, capacity float64, saturated bool) {
	observed = d.ObservedRate()
	capacity = d.cfg.CapacityRate
	if capacity == 0 && ss.ServiceMean > 0 {
		capacity = float64(d.cfg.Workers) / ss.ServiceMean
	}
	saturated = ss.Queued >= d.cfg.QueueThreshold ||
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

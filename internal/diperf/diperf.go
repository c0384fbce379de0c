// Package diperf reproduces the DiPerF framework the paper uses for all
// its measurements: a controller/collector coordinates a fleet of tester
// clients whose participation is varied slowly (ramp-up), collects
// per-operation records, and aggregates them into the figures' three
// curves — concurrent load, service response time, and throughput — plus
// the min/median/average/max/stddev summary strip printed under each
// figure.
//
// DiPerF was originally built for single-point services (Figure 1); the
// paper extended it to distributed services by giving each tester a
// client bound to one DI-GRUBER decision point. Here that binding lives
// in the Op closure the caller supplies.
package diperf

import (
	"fmt"
	"sync"
	"time"

	"digruber/internal/stats"
	"digruber/internal/vtime"
)

// OpResult is what one tester operation reports.
type OpResult struct {
	// Handled reports whether the service answered (vs. client-side
	// timeout fallback).
	Handled bool
	// Err is a hard failure (not a graceful fallback).
	Err error
	// TraceID links the operation to its span tree when the run is
	// traced (zero otherwise).
	TraceID uint64
}

// Op performs one service interaction for tester t (its seq-th). The
// controller measures its duration on the experiment clock.
type Op func(t, seq int) OpResult

// Config shapes a test.
type Config struct {
	// Testers is the fleet size (the paper ramps to ~120 clients).
	Testers int
	// Stagger is the delay between consecutive tester starts — the slow
	// ramp-up of participation.
	Stagger time.Duration
	// Interarrival is each tester's pause between operations (the
	// paper's one job per second per submission host).
	Interarrival time.Duration
	// Duration ends the test (measured from the first tester's start).
	Duration time.Duration
	// Window is the aggregation bucket for the curves.
	Window time.Duration
	Clock  vtime.Clock
}

func (c *Config) validate() error {
	if c.Testers <= 0 {
		return fmt.Errorf("diperf: Testers must be positive")
	}
	if c.Duration <= 0 {
		return fmt.Errorf("diperf: Duration must be positive")
	}
	if c.Clock == nil {
		return fmt.Errorf("diperf: Clock is required")
	}
	if c.Window <= 0 {
		c.Window = time.Minute
	}
	return nil
}

// OpRecord is one collected measurement, exported so trace analysis can
// cross-check span trees against the controller's own timing.
type OpRecord struct {
	End      time.Time
	Response time.Duration
	Handled  bool
	Err      error
	// TraceID is the operation's trace (zero when untraced).
	TraceID uint64
}

// Result is the aggregated outcome of one DiPerF run — everything a
// paper figure needs.
type Result struct {
	// Origin is the test start; curves index windows from here.
	Origin time.Time
	Window time.Duration

	// LoadCurve is concurrent active testers per window.
	LoadCurve []float64
	// ResponseCurve is mean response time per window, seconds (all ops).
	ResponseCurve []float64
	// ThroughputCurve is handled operations completed per second per
	// window — the service's delivered throughput.
	ThroughputCurve []float64

	// ResponseSummary summarizes response seconds across all ops.
	ResponseSummary stats.Summary
	// PeakThroughput is the best window of the throughput curve.
	PeakThroughput float64
	// PeakResponse is the worst window mean of the response curve.
	PeakResponse float64

	// Ops, Handled, Errors count operations.
	Ops     int
	Handled int
	Errors  int

	// Records holds every per-operation measurement in completion order —
	// the raw material figures' curves are built from, kept so traced
	// runs can join each operation to its span tree by TraceID.
	Records []OpRecord
}

// Run executes the test synchronously and returns the aggregate result.
func Run(cfg Config, op Op) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	clock := cfg.Clock
	origin := clock.Now()
	deadline := origin.Add(cfg.Duration)

	var mu sync.Mutex
	var records []OpRecord
	active := make([]struct{ start, end time.Time }, cfg.Testers)

	var wg sync.WaitGroup
	for t := 0; t < cfg.Testers; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			// Slow ramp: tester t joins after t staggers.
			if cfg.Stagger > 0 {
				clock.Sleep(time.Duration(t) * cfg.Stagger)
			}
			start := clock.Now()
			seq := 0
			for clock.Now().Before(deadline) {
				opStart := clock.Now()
				res := op(t, seq)
				opEnd := clock.Now()
				mu.Lock()
				records = append(records, OpRecord{
					End: opEnd, Response: opEnd.Sub(opStart), Handled: res.Handled,
					Err: res.Err, TraceID: res.TraceID,
				})
				mu.Unlock()
				seq++
				if cfg.Interarrival > 0 {
					clock.Sleep(cfg.Interarrival)
				}
			}
			mu.Lock()
			active[t] = struct{ start, end time.Time }{start, clock.Now()}
			mu.Unlock()
		}(t)
	}
	wg.Wait()
	return aggregate(origin, cfg, records, active), nil
}

func aggregate(origin time.Time, cfg Config, records []OpRecord, active []struct{ start, end time.Time }) Result {
	res := Result{Origin: origin, Window: cfg.Window, Records: records}
	var respSeries, tputSeries stats.Series
	var responseVals []float64
	for _, r := range records {
		res.Ops++
		if r.Handled {
			res.Handled++
			tputSeries.Add(r.End, 1)
		}
		if r.Err != nil {
			res.Errors++
		}
		respSeries.Add(r.End, r.Response.Seconds())
		responseVals = append(responseVals, r.Response.Seconds())
	}
	res.ResponseSummary = stats.Summarize(responseVals)

	span := 0
	if len(records) > 0 || len(active) > 0 {
		last := origin
		for _, r := range records {
			if r.End.After(last) {
				last = r.End
			}
		}
		for _, a := range active {
			if a.end.After(last) {
				last = a.end
			}
		}
		span = int(last.Sub(origin)/cfg.Window) + 1
	}

	respBuckets := respSeries.Bucketize(origin, cfg.Window)
	tputBuckets := tputSeries.Bucketize(origin, cfg.Window)
	res.ResponseCurve = make([]float64, span)
	res.ThroughputCurve = make([]float64, span)
	for i := 0; i < span && i < len(respBuckets); i++ {
		res.ResponseCurve[i] = respBuckets[i].Mean
	}
	for i := 0; i < span && i < len(tputBuckets); i++ {
		res.ThroughputCurve[i] = float64(tputBuckets[i].Count) / cfg.Window.Seconds()
	}

	// Load: how many testers were active during each window.
	res.LoadCurve = make([]float64, span)
	for i := 0; i < span; i++ {
		wStart := origin.Add(time.Duration(i) * cfg.Window)
		wEnd := wStart.Add(cfg.Window)
		n := 0
		for _, a := range active {
			if a.start.IsZero() {
				continue
			}
			if a.start.Before(wEnd) && a.end.After(wStart) {
				n++
			}
		}
		res.LoadCurve[i] = float64(n)
	}

	res.PeakThroughput = stats.Max(res.ThroughputCurve)
	res.PeakResponse = stats.Max(res.ResponseCurve)
	return res
}

// Render prints the result's three curves as aligned columns, the
// textual stand-in for a DiPerF figure.
func (r Result) Render() string {
	return stats.Render(r.Origin, r.Window, map[string][]float64{
		"load":        r.LoadCurve,
		"response(s)": r.ResponseCurve,
		"tput(q/s)":   r.ThroughputCurve,
	})
}

// SummaryLine prints the figure's stat strip.
func (r Result) SummaryLine() string {
	s := r.ResponseSummary
	return fmt.Sprintf(
		"response(s): min=%.2f med=%.2f avg=%.2f max=%.2f sd=%.2f | peak response=%.2fs peak tput=%.2f q/s | ops=%d handled=%d (%.1f%%) errors=%d",
		s.Min, s.Median, s.Mean, s.Max, s.StdDev,
		r.PeakResponse, r.PeakThroughput,
		r.Ops, r.Handled, pct(r.Handled, r.Ops), r.Errors)
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b) * 100
}

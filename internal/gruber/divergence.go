package gruber

import (
	"time"

	"digruber/internal/grid"
)

// ViewDivergence measures how far the engine's dynamic free-CPU view
// has drifted from ground truth, as the L1 distance (in CPUs) between
// the engine's estimate and truth across the truth sites. A site truth
// reports but the engine has never heard of contributes its full free
// count; extra engine-only sites are ignored (truth defines the grid).
// This is the quantity DI-GRUBER's exchange interval trades against RPC
// load: between exchanges a remote decision point's view ages and the
// distance grows, so shorter intervals pull the time series down
// (paper Figs. 8–10 relate the resulting staleness to scheduling
// accuracy).
func (e *Engine) ViewDivergence(truth []grid.Status) float64 {
	now := e.clock.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pruneLocked(now)
	d := 0.0
	for _, st := range truth {
		est := 0
		if sv, ok := e.sites[st.Name]; ok {
			est = sv.estFree()
		}
		diff := est - st.FreeCPUs
		if diff < 0 {
			diff = -diff
		}
		d += float64(diff)
	}
	return d
}

// MaxViewAge reports the age of the engine's stalest site baseline at
// now (0 with no sites). Exchange rounds and monitor updates refresh
// baselines, so a growing max age means this decision point has stopped
// hearing about part of the grid.
func (e *Engine) MaxViewAge(now time.Time) time.Duration {
	e.mu.RLock()
	defer e.mu.RUnlock()
	var max time.Duration
	//lint:allow mapiter -- max over values; the result is order-independent
	for _, sv := range e.sites {
		if age := now.Sub(sv.baseAt); age > max {
			max = age
		}
	}
	return max
}

// MeanViewAge reports the mean age of the site baselines at now (0 with
// no sites) — the companion gauge to MaxViewAge for distinguishing one
// dead feed from uniform staleness.
func (e *Engine) MeanViewAge(now time.Time) time.Duration {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if len(e.sites) == 0 {
		return 0
	}
	var sum time.Duration
	//lint:allow mapiter -- integer-duration sum; addition commutes exactly
	for _, sv := range e.sites {
		sum += now.Sub(sv.baseAt)
	}
	return sum / time.Duration(len(e.sites))
}

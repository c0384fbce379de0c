package gruber

import "digruber/internal/grid"

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

package stats

// Online accumulates a count and a mean incrementally, so a
// long-running collector (GRUB-SIM's per-window response monitor) never
// retains every sample. The zero value is ready to use.
type Online struct {
	n    int
	mean float64
}

// Add folds x into the accumulator.
func (o *Online) Add(x float64) {
	o.n++
	o.mean += (x - o.mean) / float64(o.n)
}

// N reports how many samples have been added.
func (o *Online) N() int { return o.n }

// Mean reports the running mean (0 before any sample).
func (o *Online) Mean() float64 { return o.mean }

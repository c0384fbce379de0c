package planlib

// ProbeName exists in planlib's test variant only.
func (p *Planner) ProbeName() string { return p.probeName() }

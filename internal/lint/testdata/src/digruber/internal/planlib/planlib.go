// Package planlib is the loader fixture for an external test that
// reaches an export_test.go accessor through another package: its test
// gets a Planner from fleetlib, which imports planlib and loads before
// it, the shape of digruber_test → exp → digruber in the real tree.
package planlib

// Planner places jobs.
type Planner struct{ name string }

// New returns a planner called name.
func New(name string) *Planner { return &Planner{name: name} }

func (p *Planner) probeName() string { return p.name }

// Package fleetlib imports planlib; see planlib's package comment.
package fleetlib

import "digruber/internal/planlib"

// Fleet holds one planner.
type Fleet struct{ Planner *planlib.Planner }

// New returns a fleet whose planner is called "fleet".
func New() *Fleet { return &Fleet{Planner: planlib.New("fleet")} }

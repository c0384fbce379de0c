package planlib_test

import (
	"testing"

	"digruber/internal/fleetlib"
)

func TestFleetPlanner(t *testing.T) {
	if got := fleetlib.New().Planner.ProbeName(); got != "fleet" {
		t.Errorf("planner %q, want fleet", got)
	}
}

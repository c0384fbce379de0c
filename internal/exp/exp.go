// Package exp defines one runnable experiment per table and figure of
// the paper's evaluation, shared by cmd/experiments and the repository's
// benchmarks.
//
// Two execution engines are used, matching DESIGN.md: live emulation
// (real goroutines and RPC over in-memory transports, under a
// time-compressed clock) for the DiPerF figures and tables, and the
// GRUB-SIM discrete-event simulator for Table 3 and the dynamic
// provisioning analysis.
//
// Every experiment that stands up brokers describes its deployment as a
// FleetSpec and gets the running decision points, clients and — on a
// Manual clock — the quiesce/advance/sample step from NewFleet; see
// fleet.go and DESIGN.md "Fleet harness".
//
// A note on the Accuracy metric: the paper defines per-job scheduling
// accuracy SA_i as the ratio of free resources at the selected site to
// the free resources the broker could have had (its figures reach ~100%
// under fresh state). We therefore compute SA_i as the ground-truth free
// CPUs at the selected site divided by the ground-truth free CPUs at the
// best possible site at dispatch time, which is 1.0 exactly when the
// decision was as good as any and degrades as the broker's view goes
// stale.
package exp

import (
	"time"
)

// Epoch anchors every experiment's virtual clock; the SC'05 conference
// week makes run logs self-describing.
var Epoch = time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)

// Scale selects how big an experiment run is. Full reproduces the
// paper's environment; Bench shrinks the environment so a run finishes
// in seconds for `go test -bench`.
type Scale struct {
	Name string
	// Sites and TotalCPUs size the emulated grid.
	Sites     int
	TotalCPUs int
	// Clients is the DiPerF tester fleet for GT3 scenarios; GT4
	// scenarios use 2/3 of it (the paper's GT4 runs peaked lower).
	Clients int
	// Duration is the emulated experiment length.
	Duration time.Duration
	// Speedup compresses virtual time for live emulation.
	Speedup float64
	// Window is the aggregation window for curves.
	Window time.Duration
	// Seed drives all randomness when a scenario doesn't set its own;
	// zero falls back to the default seed (1). Re-running any experiment
	// with the same seed replays the same fault schedules and workload
	// draws (cmd/experiments -seed).
	Seed int64
}

// FullScale reproduces the paper's environment: a grid ten times Grid3
// (300 sites / 30,000 CPUs), ~120 clients, one-hour runs.
func FullScale() Scale {
	return Scale{
		Name:      "full",
		Sites:     300,
		TotalCPUs: 30000,
		Clients:   120,
		Duration:  time.Hour,
		Speedup:   120,
		Window:    3 * time.Minute,
	}
}

// BenchScale shrinks the environment for continuous testing: the same
// shapes at a fraction of the wall-clock cost.
func BenchScale() Scale {
	return Scale{
		Name:      "bench",
		Sites:     60,
		TotalCPUs: 6000,
		Clients:   80,
		Duration:  10 * time.Minute,
		Speedup:   150,
		Window:    time.Minute,
	}
}

package exp

import (
	"time"

	"digruber/internal/grubsim"
)

// Tab3Row is one row of Table 3: starting from a given deployment,
// GRUB-SIM's dynamic provisioner reports how many decision points the
// load actually requires.
type Tab3Row struct {
	Stack         string
	InitialDPs    int
	AdditionalDPs int
	FinalDPs      int
	MeanResponse  time.Duration
	Throughput    float64
}

// Tab3Starts are the deployments the paper's live experiments used.
var Tab3Starts = []int{1, 3, 10}

// RunTab3 replays the paper's GRUB-SIM analysis: for each toolkit stack
// and each starting deployment, run the dynamic provisioner to
// convergence and report the decision points required. quick shortens
// the simulated horizon for benchmarks.
func RunTab3(quick bool) ([]Tab3Row, error) {
	var rows []Tab3Row
	for _, stack := range []string{"GT3", "GT4"} {
		for _, start := range Tab3Starts {
			var p grubsim.Params
			if stack == "GT3" {
				p = grubsim.GT3Params(start)
			} else {
				p = grubsim.GT4Params(start)
			}
			p.Dynamic = true
			if quick {
				p.Duration = 20 * time.Minute
			}
			r, err := grubsim.Run(p)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Tab3Row{
				Stack:         stack,
				InitialDPs:    start,
				AdditionalDPs: r.AddedDPs,
				FinalDPs:      r.FinalDPs,
				MeanResponse:  r.MeanResponse,
				Throughput:    r.Throughput,
			})
		}
	}
	return rows, nil
}

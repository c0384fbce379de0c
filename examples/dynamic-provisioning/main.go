// Dynamic provisioning: the Section 5 enhancement, live. Each decision
// point judges its own saturation and reports it in Status; a Controller
// (the paper's third-party monitoring service) polls those verdicts and,
// on the first one it hears, deploys another point into the mesh and
// spreads the clients over the grown fleet. Part 1 is the
// ext-dynamic-live experiment (internal/exp/extensions.go wires it on
// exp.Fleet); GRUB-SIM then replays the same regime deterministically to
// show where the deployment converges.
//
//	go run ./examples/dynamic-provisioning
//
// Part 1 runs on a Scaled clock, so how far the fleet grows in it varies
// run to run; example_test.go checks the shape only.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"digruber/internal/exp"
	"digruber/internal/grubsim"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// ---------- part 1: live saturation detection ----------
	fmt.Fprintln(w, "part 1: live overload of a single GT3 decision point")
	live, ok := exp.Lookup("ext-dynamic-live")
	if !ok {
		return errors.New("no ext-dynamic-live experiment")
	}
	report, err := live.Run(exp.BenchScale())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, report.Text)

	// ---------- part 2: GRUB-SIM provisioning to convergence ----------
	fmt.Fprintln(w, "part 2: GRUB-SIM replays the regime and provisions to convergence")
	params := grubsim.GT3Params(1)
	params.Dynamic = true
	params.MonitorInterval = time.Minute
	res, err := grubsim.Run(params)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  started with 1 decision point; monitor interval %s, response bound %s\n",
		params.MonitorInterval, params.ResponseBound)
	for i, at := range res.AddTimes {
		fmt.Fprintf(w, "  t=%-6s deployed decision point #%d and rebalanced clients\n",
			at.Round(time.Second), i+2)
	}
	fmt.Fprintf(w, "  converged at %d decision points: %.1f ops/s, mean response %s\n",
		res.FinalDPs, res.Throughput, res.MeanResponse.Round(10*time.Millisecond))
	fmt.Fprintf(w, "  (the paper's GRUB-SIM refinement: a handful of decision points\n   suffice for a grid ten times larger than Grid3)\n")
	return nil
}

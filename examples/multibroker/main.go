// Multibroker: three DI-GRUBER decision points in a mesh, loosely
// synchronized by state exchange — the paper's core architecture,
// observable end to end.
//
//	go run ./examples/multibroker
//
// Three submission hosts bind to different brokers and schedule bursts
// of work. The demo prints each broker's estimate of free CPUs before
// and after one exchange round, showing the views drift apart and then
// converge. The fleet runs on a Manual clock, so every run prints the
// same lines (example_test.go pins them).
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"digruber/internal/digruber"
	"digruber/internal/exp"
	"digruber/internal/grid"
	"digruber/internal/usla"
	"digruber/internal/vtime"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	clock := vtime.NewManual(exp.Epoch)

	// --- grid: 12 sites, ~1200 CPUs ---
	g, err := grid.Generate(grid.TopologyConfig{
		Seed: 42, Sites: 12, TotalCPUs: 1200, SizeSigma: 0.8, MaxClusterCPUs: 256,
	}, clock)
	if err != nil {
		return err
	}
	defer g.Shutdown()
	fmt.Fprintf(w, "grid: %d sites, %d CPUs\n\n", g.NumSites(), g.TotalCPUs())

	// --- three decision points in a full mesh, one host bound to each ---
	f, err := exp.NewFleet(exp.FleetSpec{
		Clock: clock, Sites: g.Snapshot, Points: 3, Clients: 3,
		Point: func(i int, c *digruber.Config) {
			c.Name = fmt.Sprintf("dp-%d", i)
			c.Addr, c.Strategy = c.Name, digruber.UsageOnly
		},
		Client: func(i int, c *digruber.ClientConfig) { c.Name = fmt.Sprintf("host-%d", i) },
	})
	if err != nil {
		return err
	}
	defer f.Close()
	points := f.Points()

	// --- each host bursts 20 jobs through its own broker ---
	vos := []string{"atlas", "cms", "cdf"}
	for h, client := range f.Clients() {
		for i := 0; i < 20; i++ {
			job := &grid.Job{ID: grid.JobID(fmt.Sprintf("h%d-job-%02d", h, i)), Owner: usla.MustParsePath(vos[h]),
				CPUs: 8, Runtime: 4 * time.Hour, SubmitHost: fmt.Sprintf("host-%d", h)}
			dec := client.Schedule(job)
			if dec.Err != nil {
				return dec.Err
			}
			site, _ := g.Site(dec.Site)
			if _, err := site.Submit(job); err != nil {
				return fmt.Errorf("submit %s at %s: %w", job.ID, dec.Site, err)
			}
		}
	}

	// --- views have drifted: each broker saw only its own dispatches ---
	truth := g.FreeCPUs()
	fmt.Fprintln(w, "free-CPU estimates BEFORE exchange (each broker is blind to 2/3 of dispatches):")
	printViews(w, points, g, truth)

	fmt.Fprintln(w, "\n... one state-exchange round ...")
	if err := f.Tick(points, true); err != nil {
		return err
	}

	fmt.Fprintln(w, "\nfree-CPU estimates AFTER exchange (flooded dispatch records merged):")
	printViews(w, points, g, truth)
	for _, dp := range points {
		st := dp.Status()
		fmt.Fprintf(w, "%s: %d local + %d remote dispatches known\n", st.Name, st.LocalDispatches, st.RemoteDispatches)
	}
	return nil
}

func printViews(w io.Writer, points []*digruber.DecisionPoint, g *grid.Grid, truth int) {
	fmt.Fprintf(w, "  ground truth: %d free CPUs\n", truth)
	for _, dp := range points {
		est := 0
		for _, name := range g.SiteNames() {
			est += dp.Engine().EstFreeCPUs(name)
		}
		fmt.Fprintf(w, "  %s believes:  %d free CPUs (error %+d)\n", dp.Name(), est, est-truth)
	}
}

// Quickstart: one DI-GRUBER decision point brokering jobs onto a small
// emulated grid, all in-process.
//
//	go run ./examples/quickstart
//
// It walks the full path a job takes in the paper: the submission host
// asks its decision point for site loads, runs site-selector logic,
// reports the dispatch back, and the job executes at the chosen site.
// The fleet runs on a Manual clock, so every run prints the same lines
// (example_test.go pins them).
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

	// --- a small grid: three sites, 56 CPUs ---
	g := grid.New(clock)
	defer g.Shutdown()
	for _, site := range []grid.SiteConfig{
		{Name: "uchicago", Clusters: []int{32}}, {Name: "anl", Clusters: []int{16}}, {Name: "fnal", Clusters: []int{8}},
	} {
		if _, err := g.AddSite(site); err != nil {
			return err
		}
	}

	// --- USLAs: the atlas VO may use at most half of any site ---
	policies := usla.NewPolicySet()
	entries, err := usla.ParseTextString(`
* atlas cpu 30
* atlas cpu 50+
* cms   cpu 20
`)
	if err == nil {
		err = policies.AddAll(entries)
	}
	if err != nil {
		return err
	}

	// --- one decision point, seeded with the grid, and one submission
	// host bound to it ---
	f, err := exp.NewFleet(exp.FleetSpec{
		Clock: clock, Sites: g.Snapshot, Points: 1, Clients: 1,
		Point: func(_ int, c *digruber.Config) {
			c.Name, c.Addr, c.Policies = "dp-0", "dp-0", policies
		},
		Client: func(_ int, c *digruber.ClientConfig) { c.Name = "laptop" },
	})
	if err != nil {
		return err
	}
	defer f.Close()

	// --- schedule and execute a handful of jobs ---
	fmt.Fprintln(w, "scheduling 6 atlas jobs through DI-GRUBER:")
	var tickets []*grid.Ticket
	for i := 0; i < 6; i++ {
		job := &grid.Job{ID: grid.JobID(fmt.Sprintf("analysis-%02d", i)), Owner: usla.MustParsePath("atlas.higgs"),
			CPUs: 4, Runtime: 2 * time.Minute, SubmitHost: "laptop"}
		dec := f.Clients()[0].Schedule(job)
		if dec.Err != nil {
			return fmt.Errorf("scheduling %s: %w", job.ID, dec.Err)
		}
		fmt.Fprintf(w, "  %s -> %-9s (handled=%v)\n", job.ID, dec.Site, dec.Handled)
		site, _ := g.Site(dec.Site)
		ticket, err := site.Submit(job)
		if err != nil {
			return fmt.Errorf("submitting %s: %w", job.ID, err)
		}
		tickets = append(tickets, ticket)
	}

	fmt.Fprintln(w, "\nrunning the clock 2 virtual minutes to the completions:")
	clock.Advance(2 * time.Minute)
	for _, t := range tickets {
		out := <-t.Done()
		fmt.Fprintf(w, "  %s finished at %-9s queue-time=%s\n",
			out.Job.ID, out.Site, out.QTime().Round(time.Second))
	}

	fmt.Fprintln(w, "\nfinal grid state:")
	for _, st := range g.Snapshot() {
		fmt.Fprintf(w, "  %-9s %3d/%3d CPUs free\n", st.Name, st.FreeCPUs, st.TotalCPUs)
	}
	st := f.Points()[0].Status()
	fmt.Fprintf(w, "\nbroker handled %d queries, recorded %d dispatches\n", st.Queries, st.LocalDispatches)
	return nil
}

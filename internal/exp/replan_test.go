package exp

import (
	"fmt"
	"testing"
	"time"

	"digruber/internal/digruber"
	"digruber/internal/euryale"
	"digruber/internal/gram"
	"digruber/internal/grid"
	"digruber/internal/netsim"
	"digruber/internal/usla"
	"digruber/internal/vtime"
)

// TestReplannedJobRunsElsewhereAndMovesInEveryView: a stepped fleet of
// two points and two hosts over two idle sites, the first of which fails
// every job at execution start. The planner, with host 0's client as its
// selector, places the job at site-000 (first by name), re-plans it, and
// it completes at site-001. After one exchange round both points count
// it at site-001 only, on either coupling.
func TestReplannedJobRunsElsewhereAndMovesInEveryView(t *testing.T) {
	for _, single := range []bool{false, true} {
		t.Run(fmt.Sprintf("single-call=%t", single), func(t *testing.T) {
			clock := vtime.NewManual(Epoch)
			g := grid.New(clock)
			defer g.Shutdown()
			for i, fail := range []float64{1, 0} {
				cfg := grid.SiteConfig{Name: fmt.Sprintf("site-%03d", i), Clusters: []int{16}, FailProb: fail,
					RNG: netsim.Stream(1, "replan")}
				if _, err := g.AddSite(cfg); err != nil {
					t.Fatal(err)
				}
			}
			f, err := NewFleet(FleetSpec{
				Clock: clock, Points: 2, Clients: 2, Sites: g.Snapshot,
				Point: func(i int, c *digruber.Config) { c.Name = fmt.Sprintf("dp-%d", i); c.Addr = c.Name },
				Client: func(i int, c *digruber.ClientConfig) {
					c.Name, c.SingleCall = fmt.Sprintf("host-%d", i), single
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			planner, err := euryale.New(f.Clients()[0], gram.NewSubmitter(g, nil, clock, gram.Config{}), nil, nil, clock, euryale.Config{})
			if err != nil {
				t.Fatal(err)
			}
			job := &grid.Job{ID: "job-1", Owner: usla.MustParsePath("atlas"), CPUs: 4, Runtime: time.Hour, SubmitHost: "host-0"}
			type result struct {
				res euryale.Result
				err error
			}
			done := make(chan result, 1)
			go func() {
				res, err := planner.RunJob(job, nil, nil)
				done <- result{res, err}
			}()
			for deadline := time.Now().Add(10 * time.Second); g.FreeCPUsAt("site-001") == 16; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("the job never started at site-001")
				}
			}
			if err := f.Tick(f.Points(), true); err != nil {
				t.Fatal(err)
			}
			for _, dp := range f.Points() {
				e := dp.Engine()
				if a, b := e.EstFreeCPUs("site-000"), e.EstFreeCPUs("site-001"); a != 16 || b != 12 {
					t.Errorf("%s: site-000 = %d, site-001 = %d free; want 16 and 12", dp.Name(), a, b)
				}
				if view := e.ExportSnapshot(); len(view) != 1 || view[0].Site != "site-001" {
					t.Errorf("%s: view %+v; want job-1 once, at site-001", dp.Name(), view)
				}
			}
			clock.Advance(time.Hour)
			r := <-done
			if r.err != nil || r.res.Attempts != 2 || r.res.Outcome.Failed || r.res.Outcome.Site != "site-001" {
				t.Errorf("RunJob = %+v, %v; want 2 attempts, completed at site-001", r.res, r.err)
			}
		})
	}
}

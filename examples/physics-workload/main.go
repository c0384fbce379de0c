// Physics workload: the scenario the paper's introduction motivates —
// LHC-style collaborations with thousands of jobs sharing a grid under
// usage SLAs.
//
//	go run ./examples/physics-workload
//
// Two VOs (atlas, cms) run reconstruction DAGs through the Euryale
// planner: prescripts call out to a DI-GRUBER decision point for site
// selection, input files stage in through the replica catalog, and failed
// placements re-plan. At the end the demo prints per-VO delivered
// CPU time against the USLA targets.
//
// The planners sleep on the clock while files move and jobs run, so the
// demo stays on a Scaled clock and its figures vary run to run;
// main_test.go checks the shape only.
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"sync"
	"time"

	"digruber/internal/digruber"
	"digruber/internal/euryale"
	"digruber/internal/exp"
	"digruber/internal/gram"
	"digruber/internal/grid"
	"digruber/internal/netsim"
	"digruber/internal/replica"
	"digruber/internal/usla"
	"digruber/internal/vtime"
	"digruber/internal/wire"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// vos are the two collaborations: USLA target (%), submission host, DAGs.
var vos = []struct {
	name, target, host string
	dags               int
}{
	{"atlas", "60", "cern-ui", 6},
	{"cms", "30", "fnal-ui", 3},
}

// raw is the detector data every generation job reads.
const raw = "lfn://raw/run2005"

func run(w io.Writer) error {
	clock := vtime.NewScaled(exp.Epoch, 240)
	network := netsim.New(7, netsim.PlanetLab())

	// --- grid: 8 sites, one of them flaky ---
	g := grid.New(clock)
	defer g.Shutdown()
	for i := 0; i < 8; i++ {
		cfg := grid.SiteConfig{Name: fmt.Sprintf("tier2-%02d", i), Clusters: []int{64, 64}}
		if i == 0 {
			cfg.FailProb = 0.7 // a misbehaving gatekeeper: Euryale re-plans around it
			cfg.RNG = netsim.Stream(7, "flaky")
		}
		if _, err := g.AddSite(cfg); err != nil {
			return err
		}
	}

	// --- USLAs: atlas 60% target / cms 30% target, both capped at 70% ---
	policies := usla.NewPolicySet()
	entries, err := usla.ParseTextString(`
* atlas cpu 60
* atlas cpu 70+
* cms   cpu 30
* cms   cpu 70+
`)
	if err == nil {
		err = policies.AddAll(entries)
	}
	if err != nil {
		return err
	}

	// --- one decision point and a submission host per VO ---
	f, err := exp.NewFleet(exp.FleetSpec{
		Clock: clock, Network: network, Sites: g.Snapshot, Points: 1, Clients: len(vos),
		Point: func(_ int, c *digruber.Config) {
			c.Name, c.Addr, c.Profile, c.Policies = "dp-0", "dp-0", wire.GT4C(), policies
		},
		Client: func(i int, c *digruber.ClientConfig) { c.Name, c.Node = vos[i].host, vos[i].host },
	})
	if err != nil {
		return err
	}
	defer f.Close()

	// --- replica catalog with the raw detector data at tier2-01 ---
	catalog := replica.NewCatalog()
	catalog.Register(raw, replica.PFN{Site: "tier2-01", Path: "/raw/run2005", Size: 64 << 20})
	submitter := gram.NewSubmitter(g, network, clock, gram.Config{SubmitOverhead: 2 * time.Second})

	// --- per-VO Euryale planners sharing one broker ---
	type tally struct {
		completed, replans, attempts int
		cpu                          time.Duration // delivered to completed nodes
		err                          error
	}
	var wg sync.WaitGroup
	runVO := func(i int, t *tally) {
		defer wg.Done()
		vo, host := vos[i].name, vos[i].host
		planner, err := euryale.New(f.Clients()[i], submitter, catalog, network, clock,
			euryale.Config{MaxAttempts: 4, CollectionSite: "tier2-01"})
		if t.err = err; err != nil {
			return
		}
		for d := 0; d < vos[i].dags; d++ {
			dag := euryale.NewDAG()
			gen, sim := fmt.Sprintf("%s-gen-%d", vo, d), fmt.Sprintf("lfn://%s/sim-%d", vo, d)
			dag.Add(euryale.Node{ID: gen, Job: job(vo, host, gen, 8, 10*time.Minute),
				Inputs: []string{raw}, Outputs: []string{sim}})
			for r := 0; r < 3; r++ {
				id := fmt.Sprintf("%s-reco-%d-%d", vo, d, r)
				dag.Add(euryale.Node{ID: id, Job: job(vo, host, id, 4, 5*time.Minute), Parents: []string{gen},
					Inputs: []string{sim}, Outputs: []string{fmt.Sprintf("lfn://%s/reco-%d-%d", vo, d, r)}})
			}
			results, err := planner.RunDAG(dag, 4)
			if t.err = err; err != nil {
				return
			}
			for _, res := range results {
				t.attempts += res.Attempts
				if res.Attempts > 1 {
					t.replans++
				}
				if o := res.Outcome; !o.Failed {
					t.completed++
					t.cpu += o.Job.Runtime * time.Duration(o.Job.CPUs)
				}
			}
		}
	}

	fmt.Fprintln(w, "running atlas and cms reconstruction DAGs through Euryale + DI-GRUBER...")
	tallies := make([]tally, len(vos))
	for i := range vos {
		wg.Add(1)
		go runVO(i, &tallies[i])
	}
	wg.Wait()
	for i, t := range tallies {
		if t.err != nil {
			return t.err
		}
		fmt.Fprintf(w, "  %s: %d nodes completed, %d placements re-planned (%d attempts total)\n",
			vos[i].name, t.completed, t.replans, t.attempts)
	}

	// --- fair-share outcome ---
	total := g.ConsumedCPU()
	fmt.Fprintln(w, "\ndelivered CPU time vs USLA targets:")
	for i, t := range tallies {
		share := 0.0
		if total > 0 {
			share = float64(t.cpu) / float64(total) * 100
		}
		fmt.Fprintf(w, "  %-5s %8s delivered (%.0f%% of delivered; USLA target %s%%)\n",
			vos[i].name, t.cpu.Round(time.Second), share, vos[i].target)
	}
	fmt.Fprintf(w, "  total delivered: %s of CPU time across the grid\n", total.Round(time.Second))
	fmt.Fprintf(w, "  raw data file staged to %d sites, accessed %d times\n",
		len(catalog.Lookup(raw)), catalog.Popularity(raw))
	return nil
}

func job(vo, host, id string, cpus int, runtime time.Duration) *grid.Job {
	return &grid.Job{ID: grid.JobID(id), Owner: usla.MustParsePath(vo), CPUs: cpus, Runtime: runtime,
		OutputBytes: 8 << 20, SubmitHost: host}
}

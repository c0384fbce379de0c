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
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"digruber/internal/digruber"
	"digruber/internal/euryale"
	"digruber/internal/gram"
	"digruber/internal/grid"
	"digruber/internal/netsim"
	"digruber/internal/replica"
	"digruber/internal/usla"
	"digruber/internal/vtime"
	"digruber/internal/wire"
)

// epoch anchors virtual time at a fixed instant so repeated runs print
// identical timestamps.
var epoch = time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)

func main() {
	clock := vtime.NewScaled(epoch, 240)
	network := netsim.New(7, netsim.PlanetLab())
	mem := wire.NewMem()

	// --- grid: 8 sites, one of them flaky ---
	g := grid.New(clock)
	for i := 0; i < 8; i++ {
		cfg := grid.SiteConfig{Name: fmt.Sprintf("tier2-%02d", i), Clusters: []int{64, 64}}
		if i == 0 {
			cfg.FailProb = 0.7 // a misbehaving gatekeeper: Euryale re-plans around it
			cfg.RNG = netsim.Stream(7, "flaky")
		}
		if _, err := g.AddSite(cfg); err != nil {
			log.Fatal(err)
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
	if err != nil {
		log.Fatal(err)
	}
	policies.AddAll(entries)

	// --- one decision point ---
	dp, err := digruber.New(digruber.Config{
		Name: "dp-0", Addr: "dp-0", Transport: mem, Network: network,
		Clock: clock, Profile: wire.GT4C(), Policies: policies,
	})
	if err != nil {
		log.Fatal(err)
	}
	dp.Engine().UpdateSites(g.Snapshot(), clock.Now())
	if err := dp.Start(); err != nil {
		log.Fatal(err)
	}
	defer dp.Stop()

	// --- replica catalog with the raw detector data at tier2-01 ---
	catalog := replica.NewCatalog()
	catalog.Register("lfn://raw/run2005", replica.PFN{Site: "tier2-01", Path: "/raw/run2005", Size: 64 << 20})

	submitter := gram.NewSubmitter(g, network, clock, gram.Config{
		SubmitOverhead: 2 * time.Second,
	})

	// Track delivered CPU time per VO for the fair-share report.
	var vmu sync.Mutex
	voCPU := map[string]time.Duration{}
	g.SetOutcomeHandler(func(o grid.Outcome) {
		if !o.Failed {
			vmu.Lock()
			voCPU[o.Job.Owner.VO] += o.Job.Runtime * time.Duration(o.Job.CPUs)
			vmu.Unlock()
		}
	})

	// --- per-VO Euryale planners sharing one broker ---
	runVO := func(vo string, host string, dags int, wg *sync.WaitGroup, report chan<- string) {
		defer wg.Done()
		client, err := digruber.NewClient(digruber.ClientConfig{
			Name: host, Node: host,
			DPName: "dp-0", DPNode: "dp-0", DPAddr: "dp-0",
			Transport: mem, Network: network, Clock: clock,
			Timeout: 30 * time.Second, FallbackSites: g.SiteNames(),
		})
		if err != nil {
			log.Fatal(err)
		}
		defer client.Close()

		selector := euryale.SelectorFunc(func(j *grid.Job, excluded map[string]bool) (string, error) {
			dec := client.Schedule(j)
			if dec.Err != nil {
				return "", dec.Err
			}
			if excluded[dec.Site] {
				// Re-planning: ask again; the broker's view has moved on,
				// but if it insists, degrade to any non-excluded site.
				for _, s := range g.SiteNames() {
					if !excluded[s] {
						return s, nil
					}
				}
			}
			return dec.Site, nil
		})
		planner, err := euryale.New(selector, submitter, catalog, network, clock, euryale.Config{
			MaxAttempts: 4, CollectionSite: "tier2-01",
		})
		if err != nil {
			log.Fatal(err)
		}

		attempts, replans, completed := 0, 0, 0
		for d := 0; d < dags; d++ {
			dag := euryale.NewDAG()
			gen := fmt.Sprintf("%s-gen-%d", vo, d)
			dag.Add(euryale.Node{
				ID:      gen,
				Job:     job(vo, host, gen, 8, 10*time.Minute),
				Inputs:  []string{"lfn://raw/run2005"},
				Outputs: []string{fmt.Sprintf("lfn://%s/sim-%d", vo, d)},
			})
			for r := 0; r < 3; r++ {
				id := fmt.Sprintf("%s-reco-%d-%d", vo, d, r)
				dag.Add(euryale.Node{
					ID:      id,
					Job:     job(vo, host, id, 4, 5*time.Minute),
					Parents: []string{gen},
					Inputs:  []string{fmt.Sprintf("lfn://%s/sim-%d", vo, d)},
					Outputs: []string{fmt.Sprintf("lfn://%s/reco-%d-%d", vo, d, r)},
				})
			}
			results, err := planner.RunDAG(dag, 4)
			if err != nil {
				log.Fatal(err)
			}
			for _, res := range results {
				attempts += res.Attempts
				if res.Attempts > 1 {
					replans++
				}
				if !res.Outcome.Failed {
					completed++
				}
			}
		}
		report <- fmt.Sprintf("%s: %d nodes completed, %d placements re-planned (%d attempts total)",
			vo, completed, replans, attempts)
	}

	fmt.Println("running atlas and cms reconstruction DAGs through Euryale + DI-GRUBER...")
	var wg sync.WaitGroup
	report := make(chan string, 2)
	wg.Add(2)
	go runVO("atlas", "cern-ui", 6, &wg, report)
	go runVO("cms", "fnal-ui", 3, &wg, report)
	wg.Wait()
	close(report)
	for line := range report {
		fmt.Println(" ", line)
	}

	// --- fair-share outcome ---
	total := g.ConsumedCPU()
	fmt.Println("\ndelivered CPU time vs USLA targets:")
	vmu.Lock()
	for _, vo := range []string{"atlas", "cms"} {
		share := 0.0
		if total > 0 {
			share = float64(voCPU[vo]) / float64(total) * 100
		}
		fmt.Printf("  %-5s %8s delivered (%.0f%% of delivered; USLA target %s%%)\n",
			vo, voCPU[vo].Round(time.Second), share, map[string]string{"atlas": "60", "cms": "30"}[vo])
	}
	vmu.Unlock()
	fmt.Printf("  total delivered: %s of CPU time across the grid\n", total.Round(time.Second))
	fmt.Printf("  raw data file staged to %d sites, accessed %d times\n",
		len(catalog.Lookup("lfn://raw/run2005")), catalog.Popularity("lfn://raw/run2005"))
}

func job(vo, host, id string, cpus int, runtime time.Duration) *grid.Job {
	return &grid.Job{
		ID:          grid.JobID(id),
		Owner:       usla.MustParsePath(vo),
		CPUs:        cpus,
		Runtime:     runtime,
		OutputBytes: 8 << 20,
		SubmitHost:  host,
	}
}

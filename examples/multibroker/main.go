// Multibroker: three DI-GRUBER decision points in a mesh over an
// emulated WAN, loosely synchronized by periodic state exchange — the
// paper's core architecture, observable end to end.
//
//	go run ./examples/multibroker
//
// Three submission hosts bind to different brokers and schedule bursts
// of work. The demo prints each broker's estimate of free CPUs before
// and after an exchange round, showing the views drift apart and then
// converge.
package main

import (
	"fmt"
	"log"
	"time"

	"digruber/internal/digruber"
	"digruber/internal/grid"
	"digruber/internal/netsim"
	"digruber/internal/usla"
	"digruber/internal/vtime"
	"digruber/internal/wire"
)

// epoch anchors virtual time at a fixed instant (the SC2005 timeframe of
// the paper) so repeated runs print identical timestamps.
var epoch = time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)

func main() {
	clock := vtime.NewScaled(epoch, 120)
	network := netsim.New(42, netsim.PlanetLab())
	mem := wire.NewMem()

	// --- grid: 12 sites, ~1200 CPUs ---
	g, err := grid.Generate(grid.TopologyConfig{
		Seed: 42, Sites: 12, TotalCPUs: 1200, SizeSigma: 0.8, MaxClusterCPUs: 256,
	}, clock)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid: %d sites, %d CPUs\n\n", g.NumSites(), g.TotalCPUs())

	// --- three decision points, full mesh, 30s exchange interval ---
	const nDP = 3
	dps := make([]*digruber.DecisionPoint, nDP)
	for i := range dps {
		dp, err := digruber.New(digruber.Config{
			Name:             fmt.Sprintf("dp-%d", i),
			Node:             fmt.Sprintf("dp-node-%d", i),
			Addr:             fmt.Sprintf("dp-%d", i),
			Transport:        mem,
			Network:          network,
			Clock:            clock,
			Profile:          wire.GT4C(),
			Policies:         usla.NewPolicySet(),
			ExchangeInterval: 30 * time.Second,
			Strategy:         digruber.UsageOnly,
		})
		if err != nil {
			log.Fatal(err)
		}
		dp.Engine().UpdateSites(g.Snapshot(), clock.Now())
		dps[i] = dp
	}
	for i, dp := range dps {
		for _, peer := range dps[i+1:] {
			digruber.Connect(dp, peer)
		}
		if err := dp.Start(); err != nil {
			log.Fatal(err)
		}
		defer dp.Stop()
	}

	// --- one client per broker ---
	clients := make([]*digruber.Client, nDP)
	for i := range clients {
		c, err := digruber.NewClient(digruber.ClientConfig{
			Name:          fmt.Sprintf("host-%d", i),
			Node:          fmt.Sprintf("host-node-%d", i),
			DPName:        dps[i].Name(),
			DPNode:        fmt.Sprintf("dp-node-%d", i),
			DPAddr:        dps[i].Addr(),
			Transport:     mem,
			Network:       network,
			Clock:         clock,
			Timeout:       30 * time.Second,
			FallbackSites: g.SiteNames(),
		})
		if err != nil {
			log.Fatal(err)
		}
		clients[i] = c
		defer c.Close()
	}

	// --- each host bursts 20 jobs through its own broker ---
	vos := []string{"atlas", "cms", "cdf"}
	for h, client := range clients {
		for i := 0; i < 20; i++ {
			job := &grid.Job{
				ID:         grid.JobID(fmt.Sprintf("h%d-job-%02d", h, i)),
				Owner:      usla.MustParsePath(vos[h]),
				CPUs:       8,
				Runtime:    4 * time.Hour,
				SubmitHost: fmt.Sprintf("host-%d", h),
			}
			dec := client.Schedule(job)
			if dec.Err != nil {
				log.Fatal(dec.Err)
			}
			site, _ := g.Site(dec.Site)
			if _, err := site.Submit(job); err != nil {
				log.Fatalf("submit %s at %s: %v", job.ID, dec.Site, err)
			}
		}
	}

	// --- views have drifted: each broker saw only its own dispatches ---
	truth := g.FreeCPUs()
	fmt.Println("free-CPU estimates BEFORE exchange (each broker is blind to 2/3 of dispatches):")
	printViews(dps, g, truth)

	// Wait for an exchange round (30 virtual seconds, plus slack for
	// WAN latency and the tick).
	fmt.Println("\n... waiting for a state-exchange round ...")
	waitForExchange(clock, dps)

	fmt.Println("\nfree-CPU estimates AFTER exchange (flooded dispatch records merged):")
	printViews(dps, g, truth)

	for _, dp := range dps {
		st := dp.Status()
		fmt.Printf("%s: %d local + %d remote dispatches known\n",
			st.Name, st.LocalDispatches, st.RemoteDispatches)
	}
}

func printViews(dps []*digruber.DecisionPoint, g *grid.Grid, truth int) {
	fmt.Printf("  ground truth: %d free CPUs\n", truth)
	for _, dp := range dps {
		est := 0
		for _, name := range g.SiteNames() {
			est += dp.Engine().EstFreeCPUs(name)
		}
		fmt.Printf("  %s believes:  %d free CPUs (error %+d)\n", dp.Name(), est, est-truth)
	}
}

// waitForExchange polls on the virtual clock: at speedup 120 the
// 20-virtual-minute deadline bounds the wait to ~10 real seconds.
func waitForExchange(clock vtime.Clock, dps []*digruber.DecisionPoint) {
	deadline := clock.Now().Add(20 * time.Minute)
	for clock.Now().Before(deadline) {
		done := true
		for _, dp := range dps {
			// Each broker should learn most of the ~40 dispatches the
			// other two brokered; the WAN can lose the odd report.
			if dp.Engine().Stats().RemoteDispatches < 35 {
				done = false
			}
		}
		if done {
			return
		}
		clock.Sleep(6 * time.Second)
	}
}

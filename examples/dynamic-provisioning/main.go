// Dynamic provisioning: the Section 5 enhancement, live. Each decision
// point judges its own saturation and reports it in Status; a Controller
// (the paper's third-party monitoring service) polls those verdicts and,
// on the first one it hears, deploys another point into the mesh and
// spreads the clients over the grown fleet. GRUB-SIM then replays the
// same regime deterministically to show where the deployment converges.
//
//	go run ./examples/dynamic-provisioning
package main

import (
	"fmt"
	"log"
	"time"

	"digruber/internal/digruber"
	"digruber/internal/grid"
	"digruber/internal/grubsim"
	"digruber/internal/netsim"
	"digruber/internal/tsdb"
	"digruber/internal/usla"
	"digruber/internal/vtime"
	"digruber/internal/wire"
)

// epoch anchors virtual time at a fixed instant so repeated runs print
// identical timestamps.
var epoch = time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)

func main() {
	// ---------- part 1: live saturation detection ----------
	fmt.Println("part 1: live overload of a single GT3 decision point")
	clock := vtime.NewScaled(epoch, 120)
	network := netsim.New(3, netsim.PlanetLab())
	mem := wire.NewMem()

	g, err := grid.Generate(grid.TopologyConfig{Seed: 3, Sites: 30, TotalCPUs: 3000, SizeSigma: 1, MaxClusterCPUs: 256}, clock)
	if err != nil {
		log.Fatal(err)
	}

	reg := tsdb.New(0)
	factory := func(idx int) (*digruber.DecisionPoint, error) {
		name := fmt.Sprintf("dp-%d", idx)
		dp, err := digruber.New(digruber.Config{
			Name: name, Addr: name, Transport: mem, Network: network,
			Clock: clock, Profile: wire.GT3(), Metrics: reg,
			Saturation: digruber.SaturationConfig{Window: 30 * time.Second},
		})
		if err != nil {
			return nil, err
		}
		dp.Engine().UpdateSites(g.Snapshot(), clock.Now())
		return dp, dp.Start()
	}
	dp, err := factory(0)
	if err != nil {
		log.Fatal(err)
	}

	const interval = 36 * time.Second // ≈300 real milliseconds at speedup 120
	ctl, err := digruber.NewController(digruber.ControllerConfig{
		Clock: clock, Factory: factory, Metrics: reg, Interval: interval, MaxDPs: 4,
		ScaleUpAfter: 1, UpCooldown: interval,
	}, []*digruber.DecisionPoint{dp})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		for _, dp := range ctl.Fleet() {
			dp.Stop()
		}
	}()

	// Hammer the point with 60 concurrent clients, all bound to dp-0.
	clients := make([]*digruber.Client, 60)
	for c := range clients {
		clients[c], err = digruber.NewClient(digruber.ClientConfig{
			Name: fmt.Sprintf("client-%02d", c), DPName: "dp-0", DPNode: "dp-0", DPAddr: "dp-0",
			Transport: mem, Network: network, Clock: clock,
			Timeout: 30 * time.Second, FallbackSites: g.SiteNames(),
		})
		if err != nil {
			log.Fatal(err)
		}
		defer clients[c].Close()
	}
	ctl.ManageClients(clients)
	sampler := tsdb.NewSampler(reg, clock, interval)
	sampler.Start()
	defer sampler.Stop()
	ctl.Start()

	done := make(chan struct{})
	for c, client := range clients {
		go func(c int, client *digruber.Client) {
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				client.Schedule(&grid.Job{
					ID:    grid.JobID(fmt.Sprintf("c%02d-%04d", c, i)),
					Owner: usla.MustParsePath("atlas"), CPUs: 1, Runtime: time.Hour,
					SubmitHost: fmt.Sprintf("client-%02d", c),
				})
				clock.Sleep(time.Second)
			}
		}(c, client)
	}

	for i := 0; i < 10 && len(ctl.Deployments()) == 0; i++ {
		clock.Sleep(interval)
		st := dp.Status()
		fmt.Printf("  t+%3ds: rate=%5.2f req/s capacity=%5.2f queued=%3d saturated=%v fleet=%d\n",
			(i+1)*int(interval.Seconds()), st.ObservedRate, st.CapacityRate, st.Queued, st.Saturated, len(ctl.Fleet()))
	}
	close(done)
	ctl.Stop() // a deployment in flight finishes rebalancing first
	if deployed := ctl.Deployments(); len(deployed) > 0 {
		bindings := map[string]int{}
		for _, c := range clients {
			bindings[c.DPName()]++
		}
		fmt.Printf("  controller deployed %d decision point(s), the first at %s; client bindings now %v\n\n",
			len(deployed), deployed[0].Format("15:04:05"), bindings)
	} else {
		fmt.Println("  (the controller heard no saturation verdict)")
	}

	// ---------- part 2: GRUB-SIM provisioning to convergence ----------
	fmt.Println("part 2: GRUB-SIM replays the regime and provisions to convergence")
	params := grubsim.GT3Params(1)
	params.Dynamic = true
	params.MonitorInterval = time.Minute
	res, err := grubsim.Run(params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  started with 1 decision point; monitor interval %s, response bound %s\n",
		params.MonitorInterval, params.ResponseBound)
	for i, at := range res.AddTimes {
		fmt.Printf("  t=%-6s deployed decision point #%d and rebalanced clients\n",
			at.Round(time.Second), i+2)
	}
	fmt.Printf("  converged at %d decision points: %.1f ops/s, mean response %s\n",
		res.FinalDPs, res.Throughput, res.MeanResponse.Round(10*time.Millisecond))
	fmt.Printf("  (the paper's GRUB-SIM refinement: a handful of decision points\n   suffice for a grid ten times larger than Grid3)\n")
}

// USLA negotiation: the agreement lifecycle the paper's introduction
// demands — providers express and publish USLAs, consumers discover and
// interpret them, and the broker enforces them — exercised end to end,
// including a runtime policy change. The fleet runs on a Manual clock,
// so every run prints the same lines (example_test.go pins them).
//
//	go run ./examples/usla-negotiation
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
	"digruber/internal/wire"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	clock := vtime.NewManual(exp.Epoch)

	// --- grid and broker, with no USLAs yet ---
	g := grid.New(clock)
	defer g.Shutdown()
	g.AddSite(grid.SiteConfig{Name: "big-center", Clusters: []int{100}})
	g.AddSite(grid.SiteConfig{Name: "small-lab", Clusters: []int{20}})

	f, err := exp.NewFleet(exp.FleetSpec{
		Clock: clock, Sites: g.Snapshot, Points: 1, Clients: 1,
		Point:  func(_ int, c *digruber.Config) { c.Name, c.Addr = "dp-0", "dp-0" },
		Client: func(_ int, c *digruber.ClientConfig) { c.Name = "atlas-host" },
	})
	if err != nil {
		return err
	}
	defer f.Close()
	dp, client := f.Points()[0], f.Clients()[0]

	rpc := wire.NewClient(wire.ClientConfig{Node: "provider-admin", ServerNode: "dp-0", Addr: "dp-0",
		Transport: f.Transport(), Clock: clock})
	defer rpc.Close()
	propose := func(xml []byte) (digruber.ProposeReply, error) {
		return wire.Call[digruber.ProposeArgs, digruber.ProposeReply](
			rpc, digruber.MethodProposeAgreement, digruber.ProposeArgs{AgreementXML: xml}, 5*time.Second)
	}

	// --- step 1: the provider proposes an agreement ---
	agreement := &usla.Agreement{
		Name:    "big-center-atlas-2005",
		Context: usla.Context{Provider: "big-center", Consumer: "atlas", Expiration: clock.Now().Add(24 * time.Hour)},
		Terms: []usla.GuaranteeTerm{
			{Name: "cpu-share", Resource: usla.CPU, Goal: "60+"},
			{Name: "storage-share", Resource: usla.Storage, Goal: "40+"},
		},
	}
	xml, err := agreement.XML()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "provider proposes:\n%s\n", xml)
	reply, err := propose(xml)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nbroker installed %d USLA entries (warnings: %d)\n\n", reply.EntriesAdded, len(reply.Warnings))

	// --- step 2: a consumer discovers published agreements ---
	published, err := wire.Call[digruber.PublishedArgs, digruber.PublishedReply](
		rpc, digruber.MethodPublishedAgreements, digruber.PublishedArgs{Provider: "big-center"}, 5*time.Second)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "consumer discovers %d published agreement(s) for big-center:\n", len(published.AgreementsXML))
	for _, doc := range published.AgreementsXML {
		a, err := usla.ParseAgreementXML(doc)
		if err != nil {
			return err
		}
		for _, term := range a.Terms {
			fmt.Fprintf(w, "  %s gets %s of %s at %s\n", a.Context.Consumer, term.Goal, term.Resource, a.Context.Provider)
		}
	}

	// --- step 3: scheduling honors the agreement ---
	placed := map[string]int{}
	for i := 0; i < 8; i++ {
		job := &grid.Job{ID: grid.JobID(fmt.Sprintf("wave1-%02d", i)), Owner: usla.MustParsePath("atlas"), CPUs: 10,
			Runtime: time.Hour, SubmitHost: "atlas-host"}
		dec := client.Schedule(job)
		if dec.Err != nil {
			return dec.Err
		}
		placed[dec.Site] += job.CPUs
		site, _ := g.Site(dec.Site)
		if _, err := site.Submit(job); err != nil {
			return fmt.Errorf("submitting %s: %w", job.ID, err)
		}
	}
	fmt.Fprintln(w, "\natlas schedules 8 × 10-CPU jobs under the 60% cap:")
	fmt.Fprintf(w, "  placements: %v\n", placed)
	fmt.Fprintln(w, "  (big-center cap = 60 CPUs, so at most 60 land there; the rest spill to small-lab)")

	// --- step 4: the provider tightens the cap at runtime ---
	agreement.Terms[0].Goal = "20+"
	xml, _ = agreement.XML() // it marshalled above; only a goal changed
	if _, err := propose(xml); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nprovider renegotiates big-center down to 20+ ...")
	for _, l := range dp.Engine().SiteLoads(usla.MustParsePath("atlas"), 1) {
		fmt.Fprintf(w, "  %-11s headroom now %.0f CPUs\n", l.Name, l.Headroom)
	}
	return nil
}

package grid

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"digruber/internal/usla"
	"digruber/internal/vtime"
)

// TestPropertySiteConservation drives random job mixes through a site
// and checks the invariants the brokering layer relies on: free CPUs
// never negative or above capacity, per-path usage sums consistently,
// and everything returns to idle after all jobs finish.
func TestPropertySiteConservation(t *testing.T) {
	f := func(sizesRaw []uint8, seed int64) bool {
		if len(sizesRaw) == 0 {
			return true
		}
		if len(sizesRaw) > 40 {
			sizesRaw = sizesRaw[:40]
		}
		clock := vtime.NewManual(epoch)
		site, err := NewSite(SiteConfig{Name: "p", Clusters: []int{64}}, clock)
		if err != nil {
			return false
		}
		vos := []string{"a", "b.g1", "c.g2.u3"}
		for i, raw := range sizesRaw {
			cpus := 1 + int(raw%8)
			runtime := time.Duration(1+raw%5) * time.Minute
			j := &Job{
				ID:      JobID(fmt.Sprintf("p%d", i)),
				Owner:   usla.MustParsePath(vos[i%len(vos)]),
				CPUs:    cpus,
				Runtime: runtime,
			}
			if _, err := site.Submit(j); err != nil {
				return false
			}
			// Invariants hold at every step.
			st := site.Snapshot()
			if st.FreeCPUs < 0 || st.FreeCPUs > st.TotalCPUs {
				return false
			}
			used := 0
			for _, s := range []string{"a", "b", "c"} {
				used += st.UsageByPath[s]
			}
			if used != st.TotalCPUs-st.FreeCPUs {
				return false
			}
			clock.Advance(30 * time.Second)
		}
		// Drain everything.
		clock.Advance(time.Hour)
		st := site.Snapshot()
		if st.FreeCPUs != st.TotalCPUs {
			return false
		}
		if len(st.UsageByPath) != 0 {
			return false
		}
		acc := site.Accounting()
		return acc.CompletedJobs == len(sizesRaw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyTopologyTotals checks the generator across random shapes:
// exact site count, near-exact CPU total, every site at least one CPU.
func TestPropertyTopologyTotals(t *testing.T) {
	f := func(seed int64, sitesRaw, cpuRaw uint8) bool {
		sites := 1 + int(sitesRaw%60)
		total := sites + int(cpuRaw)*20
		g, err := Generate(TopologyConfig{
			Seed: seed, Sites: sites, TotalCPUs: total, SizeSigma: 1, MaxClusterCPUs: 128,
		}, vtime.NewManual(epoch))
		if err != nil {
			return false
		}
		if g.NumSites() != sites {
			return false
		}
		got := g.TotalCPUs()
		// Within 10% (rounding of tiny weights can drift small totals).
		if got < total*90/100 || got > total*110/100 {
			return false
		}
		for _, s := range g.Sites() {
			if s.total < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

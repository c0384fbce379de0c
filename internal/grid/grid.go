package grid

import (
	"fmt"
	"sort"
	"time"

	"digruber/internal/vtime"
)

// Grid aggregates the sites of one emulated environment. It is the
// ground-truth oracle behind the paper's Accuracy and Utilization
// metrics.
type Grid struct {
	clock vtime.Clock
	sites map[string]*Site
	order []string
}

// New returns an empty grid on the given clock.
func New(clock vtime.Clock) *Grid {
	return &Grid{clock: clock, sites: make(map[string]*Site)}
}

// AddSite creates and registers a site.
func (g *Grid) AddSite(cfg SiteConfig) (*Site, error) {
	if _, exists := g.sites[cfg.Name]; exists {
		return nil, fmt.Errorf("grid: duplicate site %q", cfg.Name)
	}
	s, err := NewSite(cfg, g.clock)
	if err != nil {
		return nil, err
	}
	g.sites[cfg.Name] = s
	g.order = append(g.order, cfg.Name)
	return s, nil
}

// Site looks a site up by name.
func (g *Grid) Site(name string) (*Site, bool) {
	s, ok := g.sites[name]
	return s, ok
}

// Sites returns all sites in registration order.
func (g *Grid) Sites() []*Site {
	out := make([]*Site, len(g.order))
	for i, name := range g.order {
		out[i] = g.sites[name]
	}
	return out
}

// SiteNames returns the registered site names in order.
func (g *Grid) SiteNames() []string { return append([]string(nil), g.order...) }

// NumSites reports the number of sites.
func (g *Grid) NumSites() int { return len(g.order) }

// TotalCPUs sums capacity over all sites.
func (g *Grid) TotalCPUs() int {
	total := 0
	for _, s := range g.sites {
		total += s.total
	}
	return total
}

// FreeCPUs sums currently free CPUs over all sites.
func (g *Grid) FreeCPUs() int {
	free := 0
	for _, name := range g.order {
		s := g.sites[name]
		s.mu.Lock()
		free += s.free
		s.mu.Unlock()
	}
	return free
}

// FreeCPUsAt reports one site's free CPUs (0 for unknown sites).
func (g *Grid) FreeCPUsAt(name string) int {
	s, ok := g.sites[name]
	if !ok {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.free
}

// Snapshot returns every site's status, sorted by name.
func (g *Grid) Snapshot() []Status {
	out := make([]Status, 0, len(g.sites))
	for _, name := range g.order {
		out = append(out, g.sites[name].Snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SetOutcomeHandler installs one handler on every site.
func (g *Grid) SetOutcomeHandler(f func(Outcome)) {
	for _, name := range g.order {
		g.sites[name].SetOutcomeHandler(f)
	}
}

// Utilization computes the paper's Util metric over an observation
// window: CPU-time delivered to completed jobs divided by total CPU-time
// available (capacity × elapsed). Callers snapshot ConsumedCPU at window
// start and pass the delta.
func Utilization(consumed time.Duration, totalCPUs int, elapsed time.Duration) float64 {
	if totalCPUs <= 0 || elapsed <= 0 {
		return 0
	}
	return consumed.Seconds() / (float64(totalCPUs) * elapsed.Seconds())
}

// Shutdown closes every site (see Site.Close). Call at the end of an
// emulation so no timers or queued work outlive it.
func (g *Grid) Shutdown() {
	for _, name := range g.order {
		g.sites[name].Close()
	}
}

// ConsumedCPU sums delivered CPU-time across all sites.
func (g *Grid) ConsumedCPU() time.Duration {
	var total time.Duration
	for _, name := range g.order {
		total += g.sites[name].Accounting().ConsumedCPU
	}
	return total
}

// CompletedJobs sums completed jobs across all sites.
func (g *Grid) CompletedJobs() int {
	n := 0
	for _, name := range g.order {
		n += g.sites[name].Accounting().CompletedJobs
	}
	return n
}

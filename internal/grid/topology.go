package grid

import (
	"fmt"
	"math"

	"digruber/internal/netsim"
	"digruber/internal/vtime"
)

// TopologyConfig shapes a generated grid. The defaults reproduce the
// paper's emulated environment: a grid "approximately ten times larger
// than Grid3 today", i.e. on the order of 300 sites and 30,000 CPUs,
// with site sizes following Grid3's skew — a few large centers and a
// long tail of small sites.
type TopologyConfig struct {
	Seed int64
	// Sites is the number of sites to generate.
	Sites int
	// TotalCPUs is the approximate total capacity; per-site counts are
	// sampled log-normally and rescaled to hit this within rounding.
	TotalCPUs int
	// SizeSigma controls the skew of site sizes (log-normal sigma).
	SizeSigma float64
	// MaxClusterCPUs splits big sites into clusters of at most this many
	// CPUs (the paper notes sites comprise one or more clusters).
	MaxClusterCPUs int
}

// Generate builds a grid per the config. Site names are site-000…; every
// site gets at least one CPU.
func Generate(cfg TopologyConfig, clock vtime.Clock) (*Grid, error) {
	if cfg.Sites <= 0 || cfg.TotalCPUs < cfg.Sites {
		return nil, fmt.Errorf("grid: bad topology: %d sites, %d cpus", cfg.Sites, cfg.TotalCPUs)
	}
	rng := netsim.Stream(cfg.Seed, "grid.topology")

	// Sample raw log-normal weights, then rescale to the target total.
	weights := make([]float64, cfg.Sites)
	var sum float64
	for i := range weights {
		weights[i] = math.Exp(rng.NormFloat64() * cfg.SizeSigma)
		sum += weights[i]
	}
	sizes := make([]int, cfg.Sites)
	assigned := 0
	for i, w := range weights {
		n := int(math.Round(w / sum * float64(cfg.TotalCPUs)))
		if n < 1 {
			n = 1
		}
		sizes[i] = n
		assigned += n
	}
	// Redistribute rounding drift so the total lands exactly on target:
	// shrink the largest sites (never below one CPU) or grow the largest
	// site until the sum matches.
	largestIdx := func() int {
		l := 0
		for i, n := range sizes {
			if n > sizes[l] {
				l = i
			}
		}
		return l
	}
	for assigned > cfg.TotalCPUs {
		i := largestIdx()
		if sizes[i] <= 1 {
			break // every site at the 1-CPU floor; target unreachable
		}
		take := assigned - cfg.TotalCPUs
		if max := sizes[i] - 1; take > max {
			take = max
		}
		sizes[i] -= take
		assigned -= take
	}
	if assigned < cfg.TotalCPUs {
		sizes[largestIdx()] += cfg.TotalCPUs - assigned
	}

	maxCluster := cfg.MaxClusterCPUs
	if maxCluster <= 0 {
		maxCluster = 1 << 30
	}
	g := New(clock)
	for i, n := range sizes {
		var clusters []int
		for n > 0 {
			c := n
			if c > maxCluster {
				c = maxCluster
			}
			clusters = append(clusters, c)
			n -= c
		}
		_, err := g.AddSite(SiteConfig{
			Name:     fmt.Sprintf("site-%03d", i),
			Clusters: clusters,
		})
		if err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Package workload generates the composite workloads of the paper's
// experiments: work overlaid for 10 VOs with 10 groups per VO, submitted
// by ~120 submission hosts, one job per host per second, over emulated
// one-hour runs. Job runtimes follow a log-normal distribution so the
// grid carries a realistic mix of short and long work.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"digruber/internal/grid"
	"digruber/internal/netsim"
	"digruber/internal/usla"
)

// Config shapes a workload.
type Config struct {
	Seed int64
	// VOs and GroupsPerVO define the consumer hierarchy (paper: 10×10).
	VOs         int
	GroupsPerVO int
	// Hosts is the number of submission hosts (paper: ~120 clients).
	Hosts int
	// Interarrival is the per-host job submission period (paper: 1 s).
	Interarrival time.Duration
	// MeanRuntime and RuntimeSigma shape the log-normal job runtimes.
	MeanRuntime  time.Duration
	RuntimeSigma float64
	// JobCPUs is the per-job CPU demand (paper workloads: 1).
	JobCPUs int
}

// Default is the paper's composite workload shape.
func Default() Config {
	return Config{
		Seed:         1,
		VOs:          10,
		GroupsPerVO:  10,
		Hosts:        120,
		Interarrival: time.Second,
		MeanRuntime:  15 * time.Minute,
		RuntimeSigma: 0.8,
		JobCPUs:      1,
	}
}

func (c *Config) setDefaults() {
	if c.VOs <= 0 {
		c.VOs = 10
	}
	if c.GroupsPerVO <= 0 {
		c.GroupsPerVO = 10
	}
	if c.Hosts <= 0 {
		c.Hosts = 1
	}
	if c.Interarrival <= 0 {
		c.Interarrival = time.Second
	}
	if c.MeanRuntime <= 0 {
		c.MeanRuntime = 15 * time.Minute
	}
	if c.JobCPUs <= 0 {
		c.JobCPUs = 1
	}
}

// Generator produces deterministic per-host job streams.
type Generator struct {
	cfg  Config
	rngs []*rand.Rand
	seq  []int
}

// NewGenerator builds a generator; each host gets its own RNG stream.
func NewGenerator(cfg Config) *Generator {
	cfg.setDefaults()
	g := &Generator{cfg: cfg}
	g.rngs = make([]*rand.Rand, cfg.Hosts)
	g.seq = make([]int, cfg.Hosts)
	for i := range g.rngs {
		g.rngs[i] = netsim.Stream(cfg.Seed, fmt.Sprintf("workload.host-%03d", i))
	}
	return g
}

// Config returns the generator's effective configuration.
func (g *Generator) Config() Config { return g.cfg }

// HostName names submission host i.
func (g *Generator) HostName(i int) string { return fmt.Sprintf("client-%03d", i) }

// VOName names VO v.
func VOName(v int) string { return fmt.Sprintf("vo-%02d", v) }

// GroupName names group gr of a VO.
func GroupName(gr int) string { return fmt.Sprintf("group-%02d", gr) }

// HostOwner is the static consumer path host i submits under: hosts are
// spread round-robin over VOs and, within a VO, over its groups.
func (g *Generator) HostOwner(i int) usla.Path {
	vo := i % g.cfg.VOs
	group := (i / g.cfg.VOs) % g.cfg.GroupsPerVO
	return usla.Path{VO: VOName(vo), Group: GroupName(group)}
}

// NextJob produces host i's next job. Runtimes are log-normal around
// MeanRuntime; IDs are unique across hosts. A host index outside
// [0, Hosts) returns an error so a misconfigured harness fails as a
// recorded result instead of killing the run.
func (g *Generator) NextJob(host int) (*grid.Job, error) {
	if host < 0 || host >= g.cfg.Hosts {
		return nil, fmt.Errorf("workload: host %d out of range [0,%d)", host, g.cfg.Hosts)
	}
	g.seq[host]++
	rng := g.rngs[host]
	runtime := g.cfg.MeanRuntime
	if g.cfg.RuntimeSigma > 0 {
		// Log-normal with median MeanRuntime.
		factor := math.Exp(rng.NormFloat64() * g.cfg.RuntimeSigma)
		runtime = time.Duration(float64(g.cfg.MeanRuntime) * factor)
		if runtime < time.Second {
			runtime = time.Second
		}
	}
	return &grid.Job{
		ID:         grid.JobID(fmt.Sprintf("%s-job-%05d", g.HostName(host), g.seq[host])),
		Owner:      g.HostOwner(host),
		CPUs:       g.cfg.JobCPUs,
		Runtime:    runtime,
		SubmitHost: g.HostName(host),
	}, nil
}

// Policies builds the USLA policy set matching the composite workload:
// every VO gets an equal fair-share target of the grid and an upper
// limit at twice its target (so bursting is possible but bounded), and
// groups share their VO equally.
func Policies(cfg Config) (*usla.PolicySet, error) {
	cfg.setDefaults()
	ps := usla.NewPolicySet()
	voTarget := 100.0 / float64(cfg.VOs)
	voUpper := voTarget * 2
	if voUpper > 100 {
		voUpper = 100
	}
	groupTarget := 100.0 / float64(cfg.GroupsPerVO)
	add := func(consumer usla.Path, percent float64, kind usla.ShareKind) error {
		e := usla.Entry{Provider: usla.AnyProvider, Consumer: consumer, Resource: usla.CPU, Share: usla.Share{Percent: percent, Kind: kind}}
		if err := ps.Add(e); err != nil {
			return fmt.Errorf("workload: policy for %s: %w", consumer, err)
		}
		return nil
	}
	for v := 0; v < cfg.VOs; v++ {
		vo := usla.Path{VO: VOName(v)}
		if err := add(vo, voTarget, usla.Target); err != nil {
			return nil, err
		}
		if err := add(vo, voUpper, usla.UpperLimit); err != nil {
			return nil, err
		}
		for gr := 0; gr < cfg.GroupsPerVO; gr++ {
			p := usla.Path{VO: VOName(v), Group: GroupName(gr)}
			if err := add(p, groupTarget, usla.Target); err != nil {
				return nil, err
			}
		}
	}
	return ps, nil
}

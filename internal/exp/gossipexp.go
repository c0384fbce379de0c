package exp

import (
	"fmt"
	"io"
	"strings"
	"time"

	"digruber/internal/digruber"
	"digruber/internal/gossip"
	"digruber/internal/grid"
	"digruber/internal/gruber"
	"digruber/internal/tsdb"
	"digruber/internal/vtime"
)

// ext-gossip: the mesh-scaling extension. The paper's full-mesh exchange
// costs every decision point O(N) RPCs per interval, which is what caps
// DI-GRUBER's own evaluation at ~10 points. This experiment scales the
// fleet to 10/30/100 points and compares the full-mesh flood against the
// peer-sampling gossip strategy (internal/gossip) on the two axes the
// interval trades between: bytes on the wire per point per round, and
// view divergence at the interval boundary (staleness). Everything runs
// on a Manual clock over in-memory transports with sequential rounds and
// seeded peer sampling, so a run replays byte-identically.

// gossipFleetSizes are the fleet sizes exercised per scale: the paper's
// deployment (10), and the 3x/10x fleets the gossip strategy targets.
// Bench stops at 30 so `go test` and the CI smoke stay fast.
func gossipFleetSizes(scale Scale) []int {
	if scale.Name == "full" {
		return []int{10, 30, 100}
	}
	return []int{10, 30}
}

// gossipRun is one fleet configuration in the comparison matrix.
type gossipRun struct {
	key      string
	dps      int
	strategy digruber.DisseminationStrategy
	fanout   int
	viewSize int
	// every runs dissemination rounds only on every k-th step —
	// the "longer interval" axis (1 = every interval).
	every int
}

// gossipRuns builds the comparison matrix for a fleet size: the
// full-mesh baseline, two fanouts, a 3x interval, and (from 30 points
// up) a capped partial view.
func gossipRuns(n int) []gossipRun {
	runs := []gossipRun{
		{key: fmt.Sprintf("mesh-n%d", n), dps: n, strategy: digruber.UsageOnly, every: 1},
		{key: fmt.Sprintf("gossip-f2-n%d", n), dps: n, strategy: digruber.Gossip, fanout: 2, every: 1},
		{key: fmt.Sprintf("gossip-f4-n%d", n), dps: n, strategy: digruber.Gossip, fanout: 4, every: 1},
		{key: fmt.Sprintf("gossip-f4-i3-n%d", n), dps: n, strategy: digruber.Gossip, fanout: 4, every: 3},
	}
	if n >= 30 {
		runs = append(runs, gossipRun{
			key: fmt.Sprintf("gossip-f4-v16-n%d", n), dps: n,
			strategy: digruber.Gossip, fanout: 4, viewSize: 16, every: 1,
		})
	}
	return runs
}

const (
	// gossipSteps is how many exchange intervals one run emulates.
	gossipSteps = 12
	// gossipActiveDPs is how many decision points broker jobs. Keeping
	// the dispatching set small and fixed across fleet sizes isolates
	// the dissemination cost: the news rate is constant, so per-point
	// traffic growth with N is pure protocol overhead.
	gossipActiveDPs = 4
	// gossipJobsPerDP is dispatches per active point per step.
	gossipJobsPerDP = 2
	// gossipSites is the emulated grid for these runs: big enough that
	// the workload never saturates a site, small enough that digests
	// stay dominated by origin count, not site count.
	gossipSites    = 6
	gossipSiteCPUs = 200
)

// gossipOutcome is one run's measurements.
type gossipOutcome struct {
	Run gossipRun
	// Rounds is how many dissemination rounds each point executed.
	Rounds int
	// MeanDiv is the fleet-mean view divergence (L1 CPUs vs ground
	// truth) measured each step just before the round — the staleness a
	// scheduling decision at the interval boundary actually sees.
	MeanDiv float64
	// FinalDiv is the fleet-mean divergence after the last round: the
	// residual the protocol never converges away.
	FinalDiv float64
	// TotalBytes is every wire byte the fleet moved (request bytes
	// counted at the receiving server, response bytes at the sender).
	TotalBytes float64
	// BytesPerDPRound = TotalBytes / dps / Rounds — the per-point cost
	// axis; mesh grows linearly in N, gossip tracks the fanout.
	BytesPerDPRound float64
	// Relayed counts third-party records accepted fleet-wide (zero
	// under the mesh flood, which only pushes own records).
	Relayed float64
	// Duplicates counts redundant record deliveries fleet-wide — the
	// price of epidemic redundancy.
	Duplicates float64
}

// runGossipFleet emulates one configuration: n fully-peered decision
// points on a Manual clock, a fixed set of active points dispatching
// each step, sequential dissemination rounds, and a registry sample per
// step. Returns the outcome plus the run's registry for dumping.
func runGossipFleet(r gossipRun, seed int64) (gossipOutcome, *tsdb.Registry, error) {
	reg := tsdb.New(0)
	// Every point is seeded with the untouched grid; truth moves on as
	// jobs dispatch.
	statuses := idleSites("gsite-%03d", gossipSites, gossipSiteCPUs)
	truth := append([]grid.Status(nil), statuses...)
	clock := vtime.NewManual(Epoch)
	f, err := NewFleet(FleetSpec{
		Clock: clock, Metrics: reg, Points: r.dps,
		Sites: func() []grid.Status { return statuses },
		Point: func(i int, c *digruber.Config) {
			c.Name = fmt.Sprintf("gdp-%03d", i)
			c.Addr = c.Name
			c.Strategy = r.strategy
			c.Gossip = digruber.GossipConfig{Fanout: r.fanout, ViewSize: r.viewSize, Seed: seed}
		},
	})
	if err != nil {
		return gossipOutcome{}, nil, err
	}
	defer f.Close()
	dps := f.Points()

	fleetDiv := func() float64 {
		sum := 0.0
		for _, dp := range dps {
			sum += dp.Engine().ViewDivergence(truth)
		}
		return sum / float64(len(dps))
	}

	var out gossipOutcome
	out.Run = r
	active := gossipActiveDPs
	if active > r.dps {
		active = r.dps
	}
	divSum := 0.0
	jobSeq := 0
	for step := 0; step < gossipSteps; step++ {
		// The step's fresh dispatches, spread round-robin over sites.
		for a := 0; a < active; a++ {
			for j := 0; j < gossipJobsPerDP; j++ {
				site := jobSeq % gossipSites
				dps[a].Engine().RecordDispatch(gruber.Dispatch{
					JobID: fmt.Sprintf("gj-%05d", jobSeq), Site: truth[site].Name,
					Owner: "atlas", CPUs: 1,
					// Far beyond the run: divergence measures
					// dissemination lag, never expiry.
					Runtime: 1000 * time.Hour, At: clock.Now(),
				})
				truth[site].FreeCPUs--
				jobSeq++
			}
		}
		// Staleness at the interval boundary: the fresh news nobody has
		// exchanged yet, plus whatever backlog the strategy left behind.
		divSum += fleetDiv()
		round := (step+1)%r.every == 0
		if round {
			out.Rounds++
		}
		if err := f.Tick(dps, round); err != nil {
			return gossipOutcome{}, nil, err
		}
	}

	out.MeanDiv = divSum / gossipSteps
	out.FinalDiv = fleetDiv()
	for _, dp := range dps {
		p := "dp/" + dp.Name() + "/"
		for _, s := range []string{"wire/bytes_in", "wire/bytes_out"} {
			if pt, ok := reg.Latest(p + s); ok {
				out.TotalBytes += pt.V
			}
		}
		if pt, ok := reg.Latest(p + "gossip/relayed"); ok {
			out.Relayed += pt.V
		}
		if pt, ok := reg.Latest(p + "gossip/duplicates"); ok {
			out.Duplicates += pt.V
		}
	}
	if out.Rounds > 0 {
		out.BytesPerDPRound = out.TotalBytes / float64(r.dps) / float64(out.Rounds)
	}
	return out, reg, nil
}

// gossipSeed is the sampling seed for a scale (Scale.Seed, defaulting
// like the rest of the experiments to 1).
func gossipSeed(scale Scale) int64 {
	if scale.Seed != 0 {
		return scale.Seed
	}
	return 1
}

// runGossipExtension runs the full comparison matrix and reports bytes
// per point per round and divergence side by side.
func runGossipExtension(scale Scale) (Report, error) {
	var b strings.Builder
	var rows []Row
	var dump []tsdb.SeriesPoint
	b.WriteString("== Extension: peer-sampling gossip dissemination at 10-100 decision points ==\n")
	fmt.Fprintf(&b, "fixed news rate (%d points x %d dispatches/interval), %d intervals;\n",
		gossipActiveDPs, gossipJobsPerDP, gossipSteps)
	b.WriteString("divergence = fleet-mean L1 distance (CPUs) from ground truth at the\n")
	b.WriteString("interval boundary, before that interval's rounds run.\n\n")
	fmt.Fprintf(&b, "%-18s %5s %7s %7s %12s %10s %9s %8s\n",
		"run", "dps", "fanout", "rounds", "bytes/dp/rd", "mean div", "final div", "relayed")
	for _, n := range gossipFleetSizes(scale) {
		for _, r := range gossipRuns(n) {
			out, reg, err := runGossipFleet(r, gossipSeed(scale))
			if err != nil {
				return Report{}, err
			}
			fanout := "-"
			if r.strategy == digruber.Gossip {
				fanout = fmt.Sprintf("%d", out.Run.fanoutOrDefault())
			}
			fmt.Fprintf(&b, "%-18s %5d %7s %7d %12.0f %10.2f %9.2f %8.0f\n",
				r.key, r.dps, fanout, out.Rounds, out.BytesPerDPRound,
				out.MeanDiv, out.FinalDiv, out.Relayed)
			rows = append(rows, Row{
				"row": "gossip", "run": r.key, "dps": r.dps,
				"strategy": r.strategy.String(), "fanout": r.fanout,
				"view_size": r.viewSize, "every": r.every, "rounds": out.Rounds,
				"bytes_per_dp_round": out.BytesPerDPRound, "total_bytes": out.TotalBytes,
				"mean_div": out.MeanDiv, "final_div": out.FinalDiv,
				"relayed": out.Relayed, "duplicates": out.Duplicates,
			})
			if MetricsOutputPath != "" {
				dump = append(dump, reg.Flatten(r.key+"/")...)
			}
		}
		b.WriteString("\n")
	}
	b.WriteString("reading: mesh bytes/dp/round grow with the fleet (every point calls\n")
	b.WriteString("every other); gossip tracks the fanout, converging a step or two\n")
	b.WriteString("behind via transitive relay. The i3 run trades staleness for fewer\n")
	b.WriteString("rounds; the v16 run bounds link state with a partial view.\n")
	if MetricsOutputPath != "" {
		err := writeOutput(MetricsOutputPath, func(w io.Writer) error { return tsdb.WritePoints(w, dump) })
		if err != nil {
			return Report{}, err
		}
		fmt.Fprintf(&b, "\nmetrics time series written to %s (%d points)\n", MetricsOutputPath, len(dump))
	}
	return Report{Text: b.String(), Rows: rows}, nil
}

// fanoutOrDefault reports the effective fanout of a gossip run.
func (r gossipRun) fanoutOrDefault() int {
	if r.fanout > 0 {
		return r.fanout
	}
	return gossip.DefaultFanout
}

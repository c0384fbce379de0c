package exp

import (
	"fmt"
	"io"
	"strings"
	"time"

	"digruber/internal/stats"
	"digruber/internal/tsdb"
)

// MetricsOutputPath, when non-empty (cmd/experiments -metrics-out),
// makes ext-divergence write every run's sampled time series as JSONL
// to this path (series names are prefixed with the run key), so
// cmd/digruber-top -dump style offline analysis can align them.
var MetricsOutputPath string

// divergenceRun is one ext-divergence configuration: a (DP count,
// exchange interval) point of the staleness/accuracy trade-off.
type divergenceRun struct {
	key      string
	dps      int
	interval time.Duration
}

// runDivergence correlates the metrics plane's measured view divergence
// with scheduling accuracy — the mechanism behind Figures 8-10. The
// paper could only observe the accuracy endpoint; the divergence_l1
// series measures the cause directly: between exchanges every remote
// decision point's free-CPU view drifts from ground truth, and the
// drift (mean L1 distance in CPUs) grows with the exchange interval
// and with the number of decision points splitting the dispatch stream.
func runDivergence(scale Scale) (Report, error) {
	runs := []divergenceRun{
		{"dp3-1m", 3, 1 * time.Minute},
		{"dp3-3m", 3, 3 * time.Minute},
		{"dp3-10m", 3, 10 * time.Minute},
		{"dp1-3m", 1, 3 * time.Minute},
		{"dp10-3m", 10, 3 * time.Minute},
	}

	type outcome struct {
		divergenceRun
		meanDiv, maxDiv float64
		handledAcc      float64
		handledPct      float64
	}
	var results []outcome
	var dump []tsdb.SeriesPoint
	for _, r := range runs {
		sink := tsdb.New(0)
		res, err := RunScenario(ScenarioConfig{
			Name:             "ext-divergence-" + r.key,
			Scale:            scale,
			DPs:              r.dps,
			ExchangeInterval: r.interval,
			ExecuteJobs:      true,
			Seed:             scale.Seed,
			// Same contended regime as the Figure 8 accuracy sweep: long
			// jobs at a brisk rate, so stale views really do send work to
			// sites that peers have already filled.
			Interarrival: 2 * time.Second,
			MeanRuntime:  scale.Duration / 2,
			JobCPUs:      1,
			SelectorName: "most-free",
			MetricsSink:  sink,
		})
		if err != nil {
			return Report{}, err
		}
		// Fleet-mean divergence: average the per-DP series means, so a
		// 10-DP fleet is compared per broker, not by summed drift.
		var meanSum, maxAll float64
		for i := 0; i < r.dps; i++ {
			vs := tsdb.Values(sink.Points(fmt.Sprintf("dp/dp-%d/engine/divergence_l1", i)))
			meanSum += stats.Mean(vs)
			if m := stats.Max(vs); m > maxAll {
				maxAll = m
			}
		}
		pct := 0.0
		if res.DiPerF.Ops > 0 {
			pct = float64(res.DiPerF.Handled) / float64(res.DiPerF.Ops) * 100
		}
		results = append(results, outcome{
			divergenceRun: r,
			meanDiv:       meanSum / float64(r.dps),
			maxDiv:        maxAll,
			handledAcc:    res.HandledAccuracy,
			handledPct:    pct,
		})
		if MetricsOutputPath != "" {
			dump = append(dump, sink.Flatten(r.key+"/")...)
		}
	}

	var b strings.Builder
	b.WriteString("== Extension: view divergence vs scheduling accuracy (metrics plane) ==\n")
	b.WriteString("divergence = mean L1 distance (CPUs) between a decision point's dynamic\n")
	b.WriteString("free-CPU view and grid ground truth, sampled per window per broker.\n\n")
	fmt.Fprintf(&b, "%-10s %4s %10s %12s %12s %10s %9s\n",
		"run", "DPs", "interval", "mean div", "max div", "accuracy", "handled")
	for _, o := range results {
		fmt.Fprintf(&b, "%-10s %4d %10s %12.1f %12.1f %10.3f %8.1f%%\n",
			o.key, o.dps, o.interval, o.meanDiv, o.maxDiv, o.handledAcc, o.handledPct)
	}
	b.WriteString("\nReading: at a fixed 3-DP fleet the divergence series tracks the exchange\n")
	b.WriteString("interval (Figures 8-10's independent variable), and accuracy moves the\n")
	b.WriteString("other way — the staleness the interval buys is exactly the error the\n")
	b.WriteString("most-free selector pays for. A single decision point sees every dispatch\n")
	b.WriteString("and diverges only by job completions it hasn't observed; wider fleets\n")
	b.WriteString("split the dispatch stream and push per-broker divergence up.\n")

	rows := make([]Row, 0, len(results))
	for _, o := range results {
		rows = append(rows, Row{
			"row":              "divergence",
			"run":              o.key,
			"dps":              o.dps,
			"interval_s":       o.interval.Seconds(),
			"mean_div_cpus":    o.meanDiv,
			"max_div_cpus":     o.maxDiv,
			"handled_accuracy": o.handledAcc,
			"handled_pct":      o.handledPct,
		})
	}

	if MetricsOutputPath != "" {
		err := writeOutput(MetricsOutputPath, func(w io.Writer) error { return tsdb.WritePoints(w, dump) })
		if err != nil {
			return Report{}, err
		}
		fmt.Fprintf(&b, "\nmetrics time series written to %s (%d points)\n", MetricsOutputPath, len(dump))
	}
	return Report{Text: b.String(), Rows: rows}, nil
}

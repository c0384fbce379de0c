// Package digruber_test holds the repository's top-level benchmark
// harness: one benchmark per table and figure of the paper's evaluation
// (see EXPERIMENTS.md for the mapping and DESIGN.md for the experiment
// inventory). Each benchmark executes the corresponding experiment at
// bench scale — a shrunken environment that preserves the paper's
// shapes — and reports the figure's headline numbers as custom metrics,
// so `go test -bench .` regenerates the whole evaluation.
//
// Full-scale runs (300 sites / 30,000 CPUs / ~120 clients / one-hour
// emulations) are available via `go run ./cmd/experiments -scale full`.
package digruber_test

import (
	"testing"
	"time"

	"digruber/internal/exp"
	"digruber/internal/grubsim"
	"digruber/internal/wire"
)

// benchFigure runs one live DiPerF scenario per iteration and reports
// the figure's peak throughput and mean response.
func benchFigure(b *testing.B, name string, profile wire.StackProfile, dps int) {
	b.Helper()
	scale := exp.BenchScale()
	clients := scale.Clients
	if profile.Name == "GT4" {
		clients = scale.Clients * 2 / 3
	}
	var peakTput, meanResp, handledPct float64
	for i := 0; i < b.N; i++ {
		res, err := exp.RunScenario(exp.ScenarioConfig{
			Name:        name,
			Scale:       scale,
			Profile:     profile,
			DPs:         dps,
			Clients:     clients,
			ExecuteJobs: true,
			Seed:        int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		peakTput = res.DiPerF.PeakThroughput
		meanResp = res.DiPerF.ResponseSummary.Mean
		if res.DiPerF.Ops > 0 {
			handledPct = float64(res.DiPerF.Handled) / float64(res.DiPerF.Ops) * 100
		}
	}
	b.ReportMetric(peakTput, "peak-q/s")
	b.ReportMetric(meanResp, "resp-s")
	b.ReportMetric(handledPct, "handled-%")
}

// BenchmarkFig01_GT3InstanceCreation reproduces Figure 1: DiPerF driving
// plain GT3.2 service instance creation.
func BenchmarkFig01_GT3InstanceCreation(b *testing.B) {
	var peakTput, meanResp float64
	for i := 0; i < b.N; i++ {
		res, err := exp.RunFig1(exp.Fig1Config{Scale: exp.BenchScale(), Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		peakTput = res.PeakThroughput
		meanResp = res.ResponseSummary.Mean
	}
	b.ReportMetric(peakTput, "peak-q/s")
	b.ReportMetric(meanResp, "resp-s")
}

// BenchmarkFig05_GT3_1DP reproduces Figure 5 (GT3, centralized).
func BenchmarkFig05_GT3_1DP(b *testing.B) { benchFigure(b, "fig5", wire.GT3(), 1) }

// BenchmarkFig06_GT3_3DP reproduces Figure 6 (GT3, three points).
func BenchmarkFig06_GT3_3DP(b *testing.B) { benchFigure(b, "fig6", wire.GT3(), 3) }

// BenchmarkFig07_GT3_10DP reproduces Figure 7 (GT3, ten points).
func BenchmarkFig07_GT3_10DP(b *testing.B) { benchFigure(b, "fig7", wire.GT3(), 10) }

// BenchmarkFig09_GT4_1DP reproduces Figure 9 (GT4, centralized).
func BenchmarkFig09_GT4_1DP(b *testing.B) { benchFigure(b, "fig9", wire.GT4(), 1) }

// BenchmarkFig10_GT4_3DP reproduces Figure 10 (GT4, three points).
func BenchmarkFig10_GT4_3DP(b *testing.B) { benchFigure(b, "fig10", wire.GT4(), 3) }

// BenchmarkFig11_GT4_10DP reproduces Figure 11 (GT4, ten points).
func BenchmarkFig11_GT4_10DP(b *testing.B) { benchFigure(b, "fig11", wire.GT4(), 10) }

// benchTable runs the Table 1/2 trio (1/3/10 decision points) and
// reports the handled-class quality metrics of the 3-DP run.
func benchTable(b *testing.B, profile wire.StackProfile) {
	b.Helper()
	scale := exp.BenchScale()
	clients := scale.Clients
	if profile.Name == "GT4" {
		clients = scale.Clients * 2 / 3
	}
	var accuracy, util float64
	var qtime time.Duration
	for i := 0; i < b.N; i++ {
		for _, dps := range []int{1, 3, 10} {
			res, err := exp.RunScenario(exp.ScenarioConfig{
				Name:        "tab",
				Scale:       scale,
				Profile:     profile,
				DPs:         dps,
				Clients:     clients,
				ExecuteJobs: true,
				Seed:        int64(i + 1),
			})
			if err != nil {
				b.Fatal(err)
			}
			if dps == 3 {
				accuracy = res.HandledAccuracy * 100
				util = res.Util * 100
				qtime = res.Table.Rows[0].MeanQTime
			}
		}
	}
	b.ReportMetric(accuracy, "3dp-accuracy-%")
	b.ReportMetric(util, "3dp-util-%")
	b.ReportMetric(qtime.Seconds(), "3dp-qtime-s")
}

// BenchmarkTab01_GT3Overall reproduces Table 1 (GT3 overall performance).
func BenchmarkTab01_GT3Overall(b *testing.B) { benchTable(b, wire.GT3()) }

// BenchmarkTab02_GT4Overall reproduces Table 2 (GT4 overall performance).
func BenchmarkTab02_GT4Overall(b *testing.B) { benchTable(b, wire.GT4()) }

// benchAccuracy runs the Figure 8/12 exchange-interval sweep and reports
// the accuracy at the shortest and longest intervals.
func benchAccuracy(b *testing.B, profile wire.StackProfile) {
	b.Helper()
	var atShortest, atLongest float64
	for i := 0; i < b.N; i++ {
		points, err := exp.RunAccuracySweep(exp.BenchScale(), profile, nil, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		atShortest = points[0].HandledAccuracy * 100
		atLongest = points[len(points)-1].HandledAccuracy * 100
	}
	b.ReportMetric(atShortest, "acc@1m-%")
	b.ReportMetric(atLongest, "acc@30m-%")
}

// BenchmarkFig08_GT3AccuracyVsExchange reproduces Figure 8.
func BenchmarkFig08_GT3AccuracyVsExchange(b *testing.B) { benchAccuracy(b, wire.GT3()) }

// BenchmarkFig12_GT4AccuracyVsExchange reproduces Figure 12.
func BenchmarkFig12_GT4AccuracyVsExchange(b *testing.B) { benchAccuracy(b, wire.GT4()) }

// BenchmarkTab03_GrubSim reproduces Table 3: GRUB-SIM's required
// decision point counts for the GT3 and GT4 regimes.
func BenchmarkTab03_GrubSim(b *testing.B) {
	var gt3Final, gt4Final float64
	for i := 0; i < b.N; i++ {
		rows, err := exp.RunTab3(false)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.InitialDPs == 1 {
				if r.Stack == "GT3" {
					gt3Final = float64(r.FinalDPs)
				} else {
					gt4Final = float64(r.FinalDPs)
				}
			}
		}
	}
	b.ReportMetric(gt3Final, "gt3-DPs")
	b.ReportMetric(gt4Final, "gt4-DPs")
}

// BenchmarkGrubSimHour measures the simulator itself: one simulated hour
// of the paper's GT3 single-point regime per iteration.
func BenchmarkGrubSimHour(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := grubsim.Run(grubsim.GT3Params(1)); err != nil {
			b.Fatal(err)
		}
	}
}

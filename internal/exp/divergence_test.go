package exp

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"digruber/internal/digruber"
	"digruber/internal/grid"
	"digruber/internal/gruber"
	"digruber/internal/tsdb"
	"digruber/internal/vtime"
)

// divergenceFixture runs a fully deterministic two-broker scenario on a
// Manual clock: dp-a brokers one 1-CPU job per virtual minute for 30
// minutes against a 3-site, 300-CPU ground truth, exchanging state with
// dp-b every exchangeEvery minutes. Both brokers' full instrument sets
// plus per-broker divergence gauges land in the returned registry,
// sampled once per minute. Everything — job flow, exchange rounds,
// sampling — happens synchronously under a frozen clock, so the series
// are a pure function of exchangeEvery.
func divergenceFixture(t *testing.T, exchangeEvery int) *tsdb.Registry {
	t.Helper()
	clock := vtime.NewManual(Epoch)
	reg := tsdb.New(0)

	// Mutable ground truth, decremented as jobs dispatch. The engines
	// are seeded with it as it stands before the first job; after that
	// they only learn through dispatch records.
	truth := idleSites("site-%03d", 3, 100)
	names := []string{"dp-a", "dp-b"}
	f, err := NewFleet(FleetSpec{
		Clock: clock, Metrics: reg, Points: len(names),
		Sites: func() []grid.Status { return truth },
		Point: func(i int, c *digruber.Config) {
			c.Name = names[i]
			c.Addr = "div/" + names[i]
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	dps := f.Points()
	for _, dp := range dps {
		engine := dp.Engine()
		reg.GaugeFunc("dp/"+dp.Name()+"/engine/divergence_l1", func(now time.Time) float64 {
			return engine.ViewDivergence(truth)
		})
	}

	for step := 1; step <= 30; step++ {
		// dp-a brokers one job onto the fullest site (ground truth and
		// dp-a's own view agree: dp-a sees every dispatch it makes).
		best := 0
		for i := range truth {
			if truth[i].FreeCPUs > truth[best].FreeCPUs {
				best = i
			}
		}
		dps[0].Engine().RecordDispatch(gruber.Dispatch{
			JobID: fmt.Sprintf("job-%03d", step), Site: truth[best].Name,
			Owner: "atlas", CPUs: 1, Runtime: 10 * time.Hour, At: clock.Now(),
		})
		truth[best].FreeCPUs--

		clock.Advance(time.Minute)
		if step%exchangeEvery == 0 {
			dps[0].ExchangeNow()
			dps[1].ExchangeNow()
			// Samples must read a settled fleet.
			if err := f.Quiesce(); err != nil {
				t.Fatal(err)
			}
		}
		reg.Sample(clock.Now())
	}
	return reg
}

// TestDivergenceReplaysByteIdentical is the metrics plane's determinism
// acceptance: the same Manual-clock run exported twice yields
// byte-identical JSONL — timestamps, series order, every value.
func TestDivergenceReplaysByteIdentical(t *testing.T) {
	for _, every := range []int{1, 10} {
		var a, b bytes.Buffer
		if err := divergenceFixture(t, every).WriteJSONL(&a); err != nil {
			t.Fatal(err)
		}
		if err := divergenceFixture(t, every).WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		if a.Len() == 0 {
			t.Fatalf("exchangeEvery=%d: empty JSONL export", every)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("exchangeEvery=%d: identical runs produced different metrics JSONL", every)
		}
	}
}

// TestDivergenceShrinksWithShorterExchange is the substance behind
// Figures 8-10: the remote broker's view divergence is bounded by how
// much dispatching happens between exchanges, so exchanging every
// minute keeps it well under exchanging every ten.
func TestDivergenceShrinksWithShorterExchange(t *testing.T) {
	short := divergenceFixture(t, 1)
	long := divergenceFixture(t, 10)

	meanB := func(r *tsdb.Registry) float64 { return tsdb.Mean(r.Points("dp/dp-b/engine/divergence_l1")) }
	shortMean, longMean := meanB(short), meanB(long)
	if longMean <= 0 {
		t.Fatalf("10-minute exchange shows no divergence (mean %v) — gauge broken?", longMean)
	}
	if shortMean*2 >= longMean {
		t.Fatalf("divergence did not shrink with shorter exchanges: 1m mean %.2f vs 10m mean %.2f",
			shortMean, longMean)
	}

	// The dispatching broker's own view never diverges: it observes
	// every dispatch it makes, and nothing else moves ground truth.
	if max := tsdb.Max(long.Points("dp/dp-a/engine/divergence_l1")); max != 0 {
		t.Fatalf("origin broker diverged (max %v), want 0", max)
	}
	// And right after every exchange the remote broker reconverges: with
	// 1-minute exchanges every sample lands post-round, so dp-b's series
	// should be pinned at zero too.
	if max := tsdb.Max(short.Points("dp/dp-b/engine/divergence_l1")); max != 0 {
		t.Fatalf("remote broker did not reconverge after each round (max %v)", max)
	}
}

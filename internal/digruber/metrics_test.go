package digruber

import (
	"slices"
	"strings"
	"testing"
	"time"

	"digruber/internal/tsdb"
	"digruber/internal/vtime"
	"digruber/internal/wal"
	"digruber/internal/wire"
)

// TestSeriesPerPoint pins the series a started point exports in its
// metrics snapshot, for each registration variant: the eight every
// point has, the five gossip series only under the Gossip strategy, and
// the eight WAL series only with a store. A full-mesh point exporting a
// gossip series would show top a view size it does not keep.
func TestSeriesPerPoint(t *testing.T) {
	base := []string{
		"lifecycle/drain_aborts", "lifecycle/drains", "lifecycle/retired",
		"wire/bytes_in", "wire/bytes_out", "wire/expired", "wire/queue", "wire/shed",
	}
	gossip := []string{"gossip/duplicates", "gossip/pulled", "gossip/relayed", "gossip/resets", "gossip/view_size"}
	walSeries := []string{
		"wal/append_errors", "wal/appends", "wal/backfilled", "wal/bytes",
		"wal/checkpoint_age_s", "wal/checkpoints", "wal/recovered", "wal/truncated",
	}
	for _, tc := range []struct {
		name     string
		strategy DisseminationStrategy
		durable  bool
		want     []string
	}{
		{"usage-only", UsageOnly, false, base},
		{"usage-only-wal", UsageOnly, true, slices.Concat(base, walSeries)},
		{"gossip", Gossip, false, slices.Concat(base, gossip)},
		{"gossip-wal", Gossip, true, slices.Concat(base, gossip, walSeries)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			clock := vtime.NewManual(epoch)
			reg := tsdb.New(0)
			cfg := Config{
				Name: "dp-0", Addr: "dp-0", Transport: wire.NewMem(), Clock: clock,
				Profile: wire.Instant(), ExchangeInterval: time.Hour,
				Strategy: tc.strategy, Metrics: reg,
			}
			if tc.durable {
				cfg.Durability = &DurabilityConfig{Store: wal.NewMemStore()}
			}
			dp, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := dp.Start(); err != nil {
				t.Fatal(err)
			}
			defer dp.Stop()
			reg.Sample(clock.Now())

			var got []string
			for _, s := range dp.MetricsSnapshot() {
				got = append(got, strings.TrimPrefix(s.Name, "dp/dp-0/"))
			}
			want := slices.Clone(tc.want)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("%d series, want %d:\n got %v\nwant %v", len(got), len(want), got, want)
			}
		})
	}
}

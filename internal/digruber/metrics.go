package digruber

import (
	"time"

	"digruber/internal/tsdb"
	"digruber/internal/wire"
)

// dpMetrics holds the decision point's event-driven instruments. The
// instruments come from the Config registry, so with no registry they
// are all nil and every operation is a no-op (tsdb instruments are
// nil-safe); the DecisionPoint never has to check whether metrics are
// enabled.
type dpMetrics struct {
	// drains counts Drain calls entered; drainAborts those that timed out
	// back to serving; retired those that completed through to Stop.
	drains      *tsdb.Counter
	drainAborts *tsdb.Counter
	retired     *tsdb.Counter
	// gossipResets counts origin-log resets forced by sequence
	// regressions (an origin crashed and renumbered) — rare by design,
	// so it is an event counter rather than a round-accumulated gauge.
	// Nil unless the point runs the Gossip strategy.
	gossipResets *tsdb.Counter
}

// registerMetrics wires the decision point's series into reg under
// dp/<name>/. A series is registered only when something reads it:
// DESIGN.md "Series and their readers" names each reader, and the
// consumer rule in internal/lint fails on a series nobody reads. Safe
// with a nil registry: GaugeFunc is a no-op and the returned
// instruments are nil (and therefore inert).
func (dp *DecisionPoint) registerMetrics(reg *tsdb.Registry) {
	p := dp.metricsPrefix()
	dp.metrics = &dpMetrics{
		drains:      reg.Counter(p + "lifecycle/drains"),
		drainAborts: reg.Counter(p + "lifecycle/drain_aborts"),
		retired:     reg.Counter(p + "lifecycle/retired"),
	}

	// Service-stack gauges read through the DecisionPoint, not a
	// captured *wire.Server: restarts build a fresh server, and these
	// must follow it. The Controller reads queue, shed and expired; top
	// and ext-gossip read the byte totals.
	reg.GaugeFunc(p+"wire/queue", func(now time.Time) float64 { return float64(dp.serverStats().Queued) })
	reg.GaugeFunc(p+"wire/shed", func(now time.Time) float64 { return float64(dp.serverStats().Shed) })
	reg.GaugeFunc(p+"wire/expired", func(now time.Time) float64 { return float64(dp.serverStats().Expired) })
	reg.GaugeFunc(p+"wire/bytes_in", func(now time.Time) float64 { return float64(dp.serverStats().BytesIn) })
	reg.GaugeFunc(p+"wire/bytes_out", func(now time.Time) float64 { return float64(dp.serverStats().BytesOut) })

	// Gossip gauges — registered only under the gossip strategy, the way
	// the durability gauges below are registered only with a store:
	// top shows "-" for a full-mesh broker's view and relay columns.
	if dp.cfg.Strategy == Gossip {
		dp.metrics.gossipResets = reg.Counter(p + "gossip/resets")
		reg.GaugeFunc(p+"gossip/pulled", func(now time.Time) float64 {
			dp.mu.Lock()
			defer dp.mu.Unlock()
			return float64(dp.gossipPulled)
		})
		reg.GaugeFunc(p+"gossip/relayed", func(now time.Time) float64 {
			dp.mu.Lock()
			defer dp.mu.Unlock()
			return float64(dp.gossipRelayed)
		})
		reg.GaugeFunc(p+"gossip/duplicates", func(now time.Time) float64 {
			dp.mu.Lock()
			defer dp.mu.Unlock()
			return float64(dp.gossipDuplicates)
		})
		reg.GaugeFunc(p+"gossip/view_size", func(now time.Time) float64 {
			dp.mu.Lock()
			defer dp.mu.Unlock()
			return float64(len(dp.peers))
		})
	}

	// Durability gauges — registered only when a write-ahead store is
	// wired, so non-durable decision points keep their series set (and
	// any snapshot consumers) unchanged.
	if dp.dur != nil {
		dur := dp.dur
		reg.GaugeFunc(p+"wal/appends", func(now time.Time) float64 {
			return float64(dur.log.Stats().Appends)
		})
		reg.GaugeFunc(p+"wal/bytes", func(now time.Time) float64 {
			return float64(dur.log.Stats().Bytes)
		})
		reg.GaugeFunc(p+"wal/checkpoints", func(now time.Time) float64 {
			return float64(dur.log.Stats().Checkpoints)
		})
		reg.GaugeFunc(p+"wal/append_errors", func(now time.Time) float64 {
			return float64(dur.log.Stats().AppendErrors)
		})
		reg.GaugeFunc(p+"wal/recovered", func(now time.Time) float64 {
			dur.mu.Lock()
			defer dur.mu.Unlock()
			return float64(dur.recovered)
		})
		reg.GaugeFunc(p+"wal/truncated", func(now time.Time) float64 {
			dur.mu.Lock()
			defer dur.mu.Unlock()
			return float64(dur.truncations)
		})
		reg.GaugeFunc(p+"wal/backfilled", func(now time.Time) float64 {
			dur.mu.Lock()
			defer dur.mu.Unlock()
			return float64(dur.backfilled)
		})
		// checkpoint_age_s is the staleness bound on replay work: how
		// long since the log was last compacted into a checkpoint. Zero
		// until the first checkpoint (recovery takes one on every Start).
		reg.GaugeFunc(p+"wal/checkpoint_age_s", func(now time.Time) float64 {
			dur.mu.Lock()
			defer dur.mu.Unlock()
			if dur.lastCheckpoint.IsZero() {
				return 0
			}
			return now.Sub(dur.lastCheckpoint).Seconds()
		})
	}
}

// metricsPrefix is the series-name prefix for everything this decision
// point registers or snapshots: dp/<name>/.
func (dp *DecisionPoint) metricsPrefix() string { return "dp/" + dp.cfg.Name + "/" }

// serverStats snapshots the current server's counters (zero while
// stopped).
func (dp *DecisionPoint) serverStats() wire.Stats {
	dp.mu.Lock()
	server := dp.server
	dp.mu.Unlock()
	if server == nil {
		return wire.Stats{}
	}
	return server.Stats()
}

// MetricsSnapshot returns the latest value of every series under this
// decision point's prefix, for attaching to a StatusReply. Nil when no
// registry is wired or nothing has been sampled yet — keeping the gob
// frame byte-identical to a metrics-free build.
func (dp *DecisionPoint) MetricsSnapshot() []MetricSample {
	latest := dp.cfg.Metrics.LatestByPrefix(dp.metricsPrefix())
	if len(latest) == 0 {
		return nil
	}
	out := make([]MetricSample, len(latest))
	for i, nv := range latest {
		out[i] = MetricSample{Name: nv.Name, V: nv.V}
	}
	return out
}

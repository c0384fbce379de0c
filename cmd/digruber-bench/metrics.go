package main

import "fmt"

// metricDef names one metric the harness emits. BENCHMARK.json carries
// the same names, units and directions plus the regression bounds; the
// smoke test holds the two lists together.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd is what a user of the broker sees, the same set on every
// workload. The first four come from the timed phase (median over
// slices, two closed-loop clients); the rest are exact counts from the
// count phase (one client, fixed start state).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_ops_s", "decisions/s", "higher"},
	{"cpu_us_per_op", "us", "lower"},
	{"sched_p50_us", "us", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"alloc_kb_per_op", "KB", "lower"},
	{"wire_bytes_per_op", "B", "lower"},
	{"msgs_per_op", "count", "lower"},
	{"handled_ratio", "ratio", "higher"},
}

// perLayer is one module each: the prefix is the package under
// internal/ (bench is the harness itself). A metric reads 0 on a
// workload that does not exercise the layer that way: mesh figures
// with one decision point, wal figures without durability.
var perLayer = []metricDef{
	{"wire.echo_us", "us", "lower"},
	{"wire.echo_allocs", "count", "lower"},
	{"wire.echo_wire_bytes", "B", "lower"},
	{"wire.reply300_us", "us", "lower"},
	{"wire.reply300_allocs", "count", "lower"},
	{"wire.reply300_wire_bytes", "B", "lower"},
	{"wire.writes_per_op", "count", "lower"},
	{"wire.attempt_self_us", "us", "lower"},
	{"wire.queue_wait_us", "us", "lower"},
	{"wire.gt3_service_ms_per_op", "ms", "lower"},
	{"wire.shed", "count", "lower"},
	{"wire.expired", "count", "lower"},
	{"wire.conn_lost", "count", "lower"},

	{"gruber.siteloads_us", "us", "lower"},
	{"gruber.siteloads_allocs", "count", "lower"},
	{"gruber.siteloads_kb", "KB", "lower"},
	{"gruber.siteloads_par2_scaling", "ratio", "higher"},
	{"gruber.select_us", "us", "lower"},
	{"gruber.record_us", "us", "lower"},
	{"gruber.record_allocs", "count", "lower"},
	{"gruber.merge256_us", "us", "lower"},
	{"gruber.merge256_allocs", "count", "lower"},
	{"gruber.export256_us", "us", "lower"},
	{"gruber.gossip_since256_us", "us", "lower"},
	{"gruber.gossip_merge256_us", "us", "lower"},
	{"gruber.snapshot_export_ms", "ms", "lower"},
	{"gruber.select_self_us", "us", "lower"},
	{"gruber.record_self_us", "us", "lower"},
	{"gruber.expired_pruned_per_op", "count", "lower"},
	{"gruber.duplicates", "count", "lower"},

	{"usla.headroom_ns", "ns", "lower"},
	{"usla.headroom_allocs", "count", "lower"},
	{"usla.targetgap_ns", "ns", "lower"},
	{"usla.parsepath_ns", "ns", "lower"},

	{"digruber.handle_self_us", "us", "lower"},
	{"digruber.client_self_us", "us", "lower"},
	{"digruber.sched_p99_us", "us", "lower"},
	{"digruber.exchange_round_ms", "ms", "lower"},
	{"digruber.exchange_records_per_round", "count", "lower"},
	{"digruber.mesh_bytes_per_dispatch", "B", "lower"},
	{"digruber.resync_ms", "ms", "lower"},
	{"digruber.recovery_replay_ms", "ms", "lower"},
	{"digruber.recovery_checkpoint_ms", "ms", "lower"},
	{"digruber.status_us", "us", "lower"},

	{"wal.append_us", "us", "lower"},
	{"wal.append_mem_us", "us", "lower"},
	{"wal.syncs_per_op", "count", "lower"},
	{"wal.bytes_per_op", "B", "lower"},
	{"wal.decode_ms_per_krecord", "ms", "lower"},
	{"wal.checkpoint_ms", "ms", "lower"},

	{"trace.overhead_pct", "%", "lower"},
	{"trace.spans_per_op", "count", "lower"},
	{"trace.dropped", "count", "lower"},
	{"tsdb.overhead_pct", "%", "lower"},
	{"tsdb.series_per_dp", "count", "lower"},

	{"bench.gen_ns_per_job", "ns", "lower"},
	{"bench.slice_spread_pct", "%", "lower"},
	{"bench.ref_us", "us", "lower"},
}

// metric is one emitted value. Samples holds the per-slice values a
// timing median was taken over (absent for exact counts), host-speed-
// adjusted like Value; RawSamples holds the same slices as this host ran
// them (see hostSpeed). -compare reads both: the first to judge, the
// second as a witness of what the adjustment did.
type metric struct {
	Value      float64   `json:"value"`
	Unit       string    `json:"unit"`
	Samples    []float64 `json:"samples,omitempty"`
	RawSamples []float64 `json:"raw_samples,omitempty"`
}

// check is one verification of the program's outputs.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is everything one workload run produced. HostSpeed is the
// median host-speed reading beside the run's plain slices (1 = nominal):
// what Samples ÷ RawSamples of a time comes to.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Digest    string             `json:"decision_digest"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	HostSpeed float64            `json:"host_speed"`
	Checks    []check            `json:"checks"`
	Metrics   map[string]*metric `json:"metrics"`
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.name == name {
				return d.unit
			}
		}
	}
	return ""
}

// set records an exact or single-sample value.
func (r *result) set(name string, v float64) {
	r.Metrics[name] = &metric{Value: v, Unit: unitOf(name)}
}

// setAdjusted records the median of host-speed-adjusted per-slice
// samples, keeping the raw samples beside them.
func (r *result) setAdjusted(name string, samples, raw []float64) {
	r.Metrics[name] = &metric{Value: median(samples), Unit: unitOf(name), Samples: samples, RawSamples: raw}
}

func (r *result) check(name string, ok bool, format string, args ...interface{}) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *result) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.Failed == 0
}

// missing lists the metrics of defs the result does not carry.
func (r *result) missing(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		if _, ok := r.Metrics[d.name]; !ok {
			out = append(out, d.name)
		}
	}
	return out
}

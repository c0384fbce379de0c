package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"digruber/internal/digruber"
	"digruber/internal/trace"
	"digruber/internal/tsdb"
	"digruber/internal/usla"
	"digruber/internal/wire"
)

// scale is how much work each phase does. fullScale is the benchmark;
// the smoke test shrinks it.
type scale struct {
	warm      int           // set-up: resident decisions before anything is measured
	count     int           // count phase: decisions
	every     int           // count phase: decisions between mesh rounds
	setups    int           // set-ups timed for setup_s (the last one is kept)
	ramp      time.Duration // unrecorded run-in before each slice
	meshEvery time.Duration // timed phase: period of harness-driven mesh rounds
	speedWin  time.Duration // length of one host-speed reading
	ledgerDiv int           // divisor on the ledger's iteration counts
}

var fullScale = scale{
	warm: 1000, count: 4000, every: 250, setups: 5,
	ramp: 100 * time.Millisecond, meshEvery: 250 * time.Millisecond, speedWin: 100 * time.Millisecond, ledgerDiv: 1,
}

// sliceKind is what a timed slice has switched on.
type sliceKind int

const (
	plainSlice   sliceKind = iota // nothing: the end-to-end configuration
	tracedSlice                   // trace plane on clients and decision points
	meteredSlice                  // metrics plane on clients and decision points
)

// run is one workload's pass through the phases. setup does phases 1–2
// (and, traced, the ledger); slice does one timed slice and is called
// round-robin across workloads; finish reduces and verifies.
type run struct {
	spec   spec
	seed   int64
	sc     scale
	traced bool
	slices int
	slice  time.Duration
	tmp    string

	host *hostSpeed
	res  *result
	// lanes are the timed phase's fleets, one per slice kind, built on
	// first use; untraced runs only ever use the plain one.
	lanes [3]lane
	col   *trace.Collector
	reg   *tsdb.Registry
}

// lane is one fleet of the timed phase and the slices run on it.
type lane struct {
	f      *fleet
	base   counters // at the fleet's first slice
	slices []sliceResult
	// Every decision made on the lane, and those a client saw fail.
	attempted, clientBad int64
}

func newRun(s spec, seed int64, sc scale, traced bool, slices int, slice time.Duration, tmp string, host *hostSpeed) *run {
	return &run{
		spec: s, seed: seed, sc: sc, traced: traced, slices: slices, slice: slice, tmp: tmp, host: host,
		res: &result{Workload: s.name, Seed: seed, Metrics: map[string]*metric{}},
	}
}

// build sets a fleet up: construct it, then broker the resident base
// load, so dials, gob type exchange and first-use allocation all land
// here and not in a measured phase.
func (r *run) build(o fleetOpts) (*fleet, []placement, error) {
	f, err := newFleet(r.spec, r.seed, o, r.tmp)
	if err != nil {
		return nil, nil, err
	}
	warm, err := f.decideN(r.sc.warm, 0)
	if err != nil {
		f.close()
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	f.exchangeAll()
	return f, warm, nil
}

// setup runs the count phase and then the timed set-ups, leaving the
// plain lane's fleet ready for the first slice.
func (r *run) setup() error {
	// Count phase, on a fleet of its own. A durable workload counts
	// against wal.MemStore so sync counts are exact and no disk is
	// involved; traced runs also count RPC body bytes per method.
	o := fleetOpts{memWAL: true}
	if r.traced {
		o.wireMetrics = wire.NewClientMetrics()
	}
	cf, warm, err := r.build(o)
	if err != nil {
		return err
	}
	defer cf.close()
	cr, err := cf.countPhase(r.sc.count, r.sc.every)
	if err != nil {
		return fmt.Errorf("count phase: %w", err)
	}
	r.res.Attempted += int64(cr.n)
	r.res.Failed += int64(cr.n) - (cr.after.dispatched - cr.before.dispatched)
	r.res.Digest = decisionDigest(cr.placements)
	if !r.traced {
		r.res.set("allocs_per_op", float64(cr.after.mallocs-cr.before.mallocs)/float64(cr.n))
		r.res.set("alloc_kb_per_op", float64(cr.after.allocBytes-cr.before.allocBytes)/1024/float64(cr.n))
		r.res.set("wire_bytes_per_op", cr.per(cr.after.wireBytes-cr.before.wireBytes))
		r.res.set("msgs_per_op", cr.per(cr.after.received-cr.before.received))
	} else {
		r.countLayers(cr, o.wireMetrics)
	}
	verifyPlacements(r.res, cf, append(warm, cr.placements...))
	verifyConverged(r.res, cf, "count")
	if err := r.restarts(cf); err != nil {
		return err
	}
	if r.traced {
		if err := ledger(r.res, cf, r.sc.ledgerDiv, r.tmp); err != nil {
			return fmt.Errorf("ledger: %w", err)
		}
	}

	// Set-up, timed: the end-to-end configuration, built several times
	// so setup_s is a median (host-speed-adjusted like every timing); the
	// last fleet serves the plain slices. Traced runs report no set-up
	// time and leave the fleet to the first slice.
	if r.traced {
		return nil
	}
	var secs, raw []float64
	ln := &r.lanes[plainSlice]
	for i := 0; i < r.sc.setups; i++ {
		if ln.f != nil {
			ln.f.close()
		}
		before := r.host.read()
		start := time.Now()
		if ln.f, _, err = r.build(fleetOpts{}); err != nil {
			return err
		}
		took := time.Since(start).Seconds()
		raw = append(raw, took)
		secs = append(secs, took*(before+r.host.read())/2)
	}
	r.res.setAdjusted("setup_s", secs, raw)
	ln.base = ln.f.snapshot()
	return nil
}

// countLayers records the per-layer figures the count phase gives
// exactly: what crossed the wire and what the log wrote per decision.
func (r *run) countLayers(cr countResult, wm *wire.ClientMetrics) {
	b, a := cr.before, cr.after
	r.res.set("wire.writes_per_op", cr.per(a.wireWrites-b.wireWrites))
	r.res.set("gruber.duplicates", float64(a.duplicates-b.duplicates))
	r.res.set("wal.syncs_per_op", cr.per(a.walSyncs-b.walSyncs))
	r.res.set("wal.bytes_per_op", cr.per(a.walBytes-b.walBytes))
	r.res.set("digruber.mesh_bytes_per_dispatch", float64(a.meshBytes-b.meshBytes)/float64(a.dispatched-b.dispatched))
	roundMs, roundRecs := 0.0, 0.0
	if rounds := float64(a.rounds - b.rounds); rounds > 0 {
		roundMs = float64((a.roundTime - b.roundTime).Microseconds()) / 1e3 / rounds
		roundRecs = float64(a.roundRecords-b.roundRecords) / rounds
	}
	r.res.set("digruber.exchange_round_ms", roundMs)
	r.res.set("digruber.exchange_records_per_round", roundRecs)

	// What the paper-scale container would charge for these bodies:
	// computed from wire.GT3(), not measured.
	methods := []string{digruber.MethodQuery, digruber.MethodReport}
	if r.spec.singleCall {
		methods = []string{digruber.MethodSchedule}
	}
	decisions := int64(r.sc.warm + cr.n)
	var gt3 time.Duration
	io := wm.MethodIO()
	for _, m := range methods {
		gt3 += wire.GT3().ServiceTime(int((io[m].In + io[m].Out) / decisions))
	}
	r.res.set("wire.gt3_service_ms_per_op", float64(gt3.Microseconds())/1e3)
}

// restarts crashes and restarts a decision point of the count-phase
// fleet, whose state is fixed (every resident dispatch, none expired):
// a mesh member must get everything back from a peer's snapshot, a
// durable point from its own log and then from its checkpoint. No acked
// dispatch may be lost either way.
func (r *run) restarts(f *fleet) error {
	if r.traced {
		for _, name := range []string{"digruber.resync_ms", "digruber.recovery_replay_ms", "digruber.recovery_checkpoint_ms"} {
			r.res.set(name, 0)
		}
	}
	bounce := func(dp *digruber.DecisionPoint) (float64, error) {
		dp.Crash()
		start := time.Now()
		err := dp.Restart()
		return float64(time.Since(start).Microseconds()) / 1e3, err
	}
	resident := r.sc.warm + r.sc.count
	if len(f.dps) > 1 {
		dp := f.dps[len(f.dps)-1]
		before := dp.Engine().PendingDispatches()
		ms, err := bounce(dp)
		if err != nil {
			return fmt.Errorf("restart %s: %w", dp.Name(), err)
		}
		after := dp.Engine().PendingDispatches()
		r.res.check("mesh-restart-loses-nothing", before == resident && after == resident,
			"%s held %d dispatches before the crash and %d after resync, want %d", dp.Name(), before, after, resident)
		if r.traced {
			r.res.set("digruber.resync_ms", ms)
		}
	}
	if r.spec.durable {
		dp := f.dps[0]
		before := dp.Engine().PendingDispatches()
		replayMs, err := bounce(dp)
		if err != nil {
			return fmt.Errorf("restart %s: %w", dp.Name(), err)
		}
		replay := dp.LastRecovery()
		ckptMs, err := bounce(dp)
		if err != nil {
			return fmt.Errorf("second restart %s: %w", dp.Name(), err)
		}
		ckpt := dp.LastRecovery()
		after := dp.Engine().PendingDispatches()
		r.res.check("durable-restart-loses-nothing",
			before == resident && after == resident && replay.Recovered == resident && ckpt.CheckpointRestored && ckpt.Recovered == 0,
			"held %d before, %d after; first restart replayed %d log records, second restored checkpoint=%v and replayed %d; want %d",
			before, after, replay.Recovered, ckpt.CheckpointRestored, ckpt.Recovered, resident)
		if r.traced {
			r.res.set("digruber.recovery_replay_ms", replayMs)
			r.res.set("digruber.recovery_checkpoint_ms", ckptMs)
		}
	}
	return nil
}

// kindOf says what slice i of the timed phase switches on. Untraced
// runs are all plain. Traced runs give every fourth slice to the trace
// plane and every fourth to the metrics plane, so each plane's overhead
// is read against plain slices of the same minute.
func (r *run) kindOf(i int) sliceKind {
	if r.traced {
		switch i % 4 {
		case 2:
			return tracedSlice
		case 3:
			return meteredSlice
		}
	}
	return plainSlice
}

// runSlice runs slice i of the timed phase on its kind's lane, building
// the lane's fleet the first time.
func (r *run) runSlice(i int) error {
	kind := r.kindOf(i)
	ln := &r.lanes[kind]
	if ln.f == nil {
		var o fleetOpts
		switch kind {
		case tracedSlice:
			r.col = trace.NewCollector(1 << 21)
			o.col = r.col
		case meteredSlice:
			r.reg = tsdb.New(0)
			o.reg = r.reg
		}
		f, _, err := r.build(o)
		if err != nil {
			return err
		}
		ln.f, ln.base = f, f.snapshot()
	}
	sr, err := ln.run(r)
	if errors.Is(err, errStalled) {
		// Seen once in some hundred slices on the baseline sandbox, with
		// every neighbouring slice normal: the whole process stood still
		// for the length of the window. One more try tells a stalled host
		// from a stalled program, which stalls again and fails the run; the
		// result says that it happened.
		r.res.check("slice-rerun-after-stall", true, "slice %d completed no decision in %s and was run again", i, r.slice)
		sr, err = ln.run(r)
	}
	if err != nil {
		return err
	}
	ln.slices = append(ln.slices, sr)
	return nil
}

// run runs one slice on the lane's fleet and counts what it attempted,
// whether or not the slice yields a measurement.
func (ln *lane) run(r *run) (sliceResult, error) {
	sr, err := ln.f.runSlice(r.host, r.sc.ramp, r.slice, r.sc.meshEvery)
	ln.attempted += sr.attempted
	ln.clientBad += sr.clientBad
	return sr, err
}

// close releases the timed-phase fleets; safe at any point of the run.
func (r *run) close() {
	for i := range r.lanes {
		if f := r.lanes[i].f; f != nil {
			f.close()
			r.lanes[i].f = nil
		}
	}
}

// adjusted returns get(slice) × speed^power for every slice of the lane:
// power +1 turns a raw time into a host-speed-adjusted one, −1 a rate.
func (ln *lane) adjusted(get func(sliceResult) float64, power float64) (adj, raw []float64) {
	for _, s := range ln.slices {
		v := get(s)
		raw = append(raw, v)
		adj = append(adj, v*math.Pow(s.speed, power))
	}
	return adj, raw
}

// speed is the median host speed beside the lane's slices.
func (ln *lane) speed() float64 {
	speeds := make([]float64, len(ln.slices))
	for i, s := range ln.slices {
		speeds[i] = s.speed
	}
	return median(speeds)
}

// finish reduces the slices to metrics and verifies the timed fleets.
func (r *run) finish() {
	var attempted, clientBad, shed int64
	for i := range r.lanes {
		ln := &r.lanes[i]
		if ln.f == nil {
			continue
		}
		end := ln.f.snapshot()
		attempted += ln.attempted
		clientBad += ln.clientBad
		r.res.Failed += ln.attempted - (end.dispatched - ln.base.dispatched)
		shed += end.shed + end.expired + end.lost
		if sliceKind(i) == plainSlice {
			verifyConverged(r.res, ln.f, "timed")
		}
	}
	r.res.Attempted += attempted
	r.res.check("clients-saw-no-failure", clientBad == 0, "%d decisions came back unhandled or with an error", clientBad)
	r.res.check("no-shed-expired-lost", shed == 0, "%d requests shed, expired or answered into a lost connection", shed)

	plain := &r.lanes[plainSlice]
	r.res.HostSpeed = plain.speed()
	ops, rawOps := plain.adjusted(sliceResult.opsPerSec, -1)
	cpu, rawCPU := plain.adjusted(sliceResult.cpuPerOp, 1)
	p50, rawP50 := plain.adjusted(sliceResult.p50, 1)
	if !r.traced {
		r.res.setAdjusted("peak_ops_s", ops, rawOps)
		r.res.setAdjusted("cpu_us_per_op", cpu, rawCPU)
		r.res.setAdjusted("sched_p50_us", p50, rawP50)
		r.res.set("handled_ratio", 1-float64(r.res.Failed)/float64(r.res.Attempted))
		return
	}

	// p99 over every plain slice's decisions pooled, each adjusted by its
	// own slice's host speed: half-second slices of the slower workloads
	// hold too few samples for a tail of their own. 0 when even the pool
	// has fewer than ten samples beyond it.
	var pooled []float64
	for _, s := range plain.slices {
		for _, l := range s.latencies {
			pooled = append(pooled, l*s.speed)
		}
	}
	sort.Float64s(pooled)
	p99, _ := percentile(pooled, 0.99)
	r.res.set("digruber.sched_p99_us", p99)
	r.res.set("bench.slice_spread_pct", 100*spread(ops))
	r.res.set("bench.ref_us", 1e6/(median(r.host.reads)*nominalRate))
	end := plain.f.snapshot()
	r.res.set("gruber.expired_pruned_per_op", float64(end.pruned-plain.base.pruned)/float64(end.dispatched-plain.base.dispatched))
	r.res.set("wire.shed", float64(end.shed))
	r.res.set("wire.expired", float64(end.expired))
	r.res.set("wire.conn_lost", float64(end.lost))

	// Each plane's cost: its slice's adjusted CPU per decision against
	// the two plain slices of the same group of four (see kindOf), median
	// over groups, so host drift between groups cancels.
	overhead := func(kind sliceKind) float64 {
		plane, _ := r.lanes[kind].adjusted(sliceResult.cpuPerOp, 1)
		var over []float64
		for g, v := range plane {
			if 2*g+1 < len(cpu) {
				over = append(over, v/((cpu[2*g]+cpu[2*g+1])/2)-1)
			}
		}
		return 100 * median(over)
	}
	r.res.set("trace.overhead_pct", overhead(tracedSlice))
	r.res.set("tsdb.overhead_pct", overhead(meteredSlice))
	r.reg.Sample(time.Now())
	r.res.set("tsdb.series_per_dp", float64(len(r.reg.SeriesNames()))/float64(r.spec.dps))

	// Self times, scaled by the traced lane's median host speed like
	// every other time of the timed phase.
	t := summarizeTrace(r.col)
	tracedSpeed := r.lanes[tracedSlice].speed()
	self := func(names ...string) float64 { return t.selfOf(names...) * tracedSpeed }
	r.res.set("trace.dropped", float64(t.dropped))
	r.res.set("trace.spans_per_op", float64(t.spans)/float64(max(t.trees, 1)))
	r.res.set("wire.attempt_self_us", self(trace.PhaseAttempt))
	r.res.set("wire.queue_wait_us", self(trace.PhaseQueue))
	r.res.set("gruber.select_self_us", self(trace.PhaseEngineSelect))
	r.res.set("gruber.record_self_us", self(trace.PhaseEngineRecord))
	r.res.set("digruber.handle_self_us", self(trace.PhaseHandle))
	// Body encode/decode on the client happens inside the query and
	// report spans but outside wire.attempt, so it is client self time.
	r.res.set("digruber.client_self_us", self(trace.PhaseSchedule, trace.PhaseQuery, trace.PhaseSelect, trace.PhaseReport, trace.PhaseFallback))
	gap := float64(t.root-t.selfSum()) / float64(max(t.root, 1))
	r.res.check("trace-self-times-sum-to-root", t.trees > 0 && gap < 0.02 && gap > -0.02 && t.dropped == 0,
		"%d trees, self times cover %.2f%% of client.schedule, %d spans dropped", t.trees, 100*(1-gap), t.dropped)
}

// verifyPlacements checks the resident decisions against the grid, the
// broker's own record and the VO upper limits.
func verifyPlacements(res *result, f *fleet, ps []placement) {
	capacity := make(map[string]int, len(f.sites))
	for _, st := range f.sites {
		capacity[st.Name] = st.TotalCPUs
	}
	recorded := make(map[string]string, len(ps))
	for _, d := range f.dps[0].Engine().ExportSnapshot() {
		recorded[d.JobID] = d.Site
	}
	type siteVO struct{ site, vo string }
	placed := make(map[siteVO]int)
	offGrid, unrecorded, overLimit := 0, 0, 0
	for _, p := range ps {
		if _, ok := capacity[p.site]; !ok {
			offGrid++
		}
		if recorded[p.job] != p.site {
			unrecorded++
		}
		k := siteVO{p.site, p.vo}
		placed[k]++ // every job asks for one CPU
		upper := f.policies.LimitsFor(p.site, usla.Path{VO: p.vo}, usla.CPU).Upper / 100 * float64(capacity[p.site])
		if float64(placed[k]) > upper {
			overLimit++
		}
	}
	res.check("sites-from-grid", offGrid == 0, "%d of %d decisions named a site outside the grid", offGrid, len(ps))
	res.check("broker-recorded-every-decision", unrecorded == 0, "%d of %d decisions differ from the engine's record", unrecorded, len(ps))
	res.check("vo-upper-limits-hold", overLimit == 0, "%d of %d placements took a (site, VO) past its upper limit", overLimit, len(ps))
}

// verifyConverged flushes the mesh and checks every engine ends with
// every record. Under UsageOnly the full-mesh Exchange path keeps no
// per-origin log for remote records, so OriginVector cannot agree
// across engines; what must agree is the record count and — where
// nothing is expiring (stable) — the view built from it: unexpired
// dispatches and the per-site free-CPU estimate. That holds after the
// count phase; after the timed phase one-second jobs are still running
// out.
func verifyConverged(res *result, f *fleet, phase string) {
	stable := phase == "count"
	if len(f.dps) < 2 {
		return
	}
	f.exchangeAll()
	total := f.dispatched()
	ref := f.dps[0].Engine()
	short, differ := 0, 0
	for _, dp := range f.dps {
		e := dp.Engine()
		if st := e.Stats(); st.LocalDispatches+st.RemoteDispatches != total {
			short++
		}
		if !stable {
			continue
		}
		if e.PendingDispatches() != ref.PendingDispatches() {
			differ++
		}
		for _, st := range f.sites {
			if e.EstFreeCPUs(st.Name) != ref.EstFreeCPUs(st.Name) {
				differ++
			}
		}
	}
	res.check(phase+"-mesh-every-record-everywhere", short == 0, "%d of %d engines hold fewer than the %d dispatches brokered", short, len(f.dps), total)
	if stable {
		res.check(phase+"-mesh-views-converged", differ == 0, "%d views differ from %s's after a final flush", differ, ref.Name())
	}
}

package main

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"digruber/internal/trace"
)

// counters is everything the harness reads from outside the program at
// a phase boundary; metrics are differences of two snapshots.
type counters struct {
	mallocs, allocBytes   uint64
	wireBytes, wireWrites int64
	meshBytes             int64
	received              int64
	shed, expired, lost   int64
	dispatched            int64
	pruned, duplicates    int64
	walAppends, walBytes  int64
	walSyncs              int64
	// Mesh rounds that sent records: how many, how long, how much.
	rounds, roundRecords int
	roundTime            time.Duration
}

// snapshot reads the counters. The allocation totals are read last so a
// before-snapshot excludes the harness's own reads, and the caller
// takes the after-snapshot's allocation totals first (see countPhase).
func (f *fleet) snapshot() counters {
	c := counters{rounds: f.rounds, roundRecords: f.roundRecords, roundTime: f.roundTime}
	c.wireBytes = f.net.wireBytes()
	c.wireWrites = f.net.all.writes.Load()
	c.meshBytes = f.mesh.bytes()
	for _, dp := range f.dps {
		st := dp.Status()
		c.received += st.Received
		c.shed += st.Shed
		c.expired += st.Expired
		c.lost += st.ConnLost
		es := dp.Engine().Stats()
		c.dispatched += es.LocalDispatches
		c.pruned += es.ExpiredPruned
		c.duplicates += es.DuplicateIgnored
		ws := dp.WALStats()
		c.walAppends += ws.Appends
		c.walBytes += ws.Bytes
	}
	if f.memStore != nil {
		c.walSyncs = f.memStore.Syncs()
	}
	c.mallocs, c.allocBytes = allocTotals()
	return c
}

func allocTotals() (mallocs, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// processCPU is the user+system processor time this process has used.
// Clients and decision points share the process, so it covers both.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// countResult is the count phase: exact per-decision costs from a fixed
// start state, one client, nothing expiring.
type countResult struct {
	n          int
	placements []placement
	before     counters
	after      counters
}

func (c countResult) per(delta int64) float64 { return float64(delta) / float64(c.n) }

// countPhase brokers n resident jobs from client 0 with a mesh round
// every `every` decisions.
func (f *fleet) countPhase(n, every int) (countResult, error) {
	runtime.GC()
	res := countResult{n: n, before: f.snapshot()}
	ps, err := f.decideN(n, every)
	mallocs, bytes := allocTotals()
	if err != nil {
		return res, err
	}
	res.placements = ps
	res.after = f.snapshot()
	res.after.mallocs, res.after.allocBytes = mallocs, bytes
	return res, nil
}

// sliceResult is one timed slice of closed-loop load.
type sliceResult struct {
	ops       int           // decisions completed inside the window
	elapsed   time.Duration // window length
	cpu       time.Duration // process CPU inside the window
	latencies []float64     // µs, sorted, decisions inside the window
	attempted int64         // every decision the slice made, ramp included
	clientBad int64         // of those, the ones a client saw fail
	speed     float64       // host speed beside the slice (see hostSpeed)
}

// The slice's figures, raw: as this host ran them.
func (s sliceResult) opsPerSec() float64 { return float64(s.ops) / s.elapsed.Seconds() }
func (s sliceResult) cpuPerOp() float64  { return float64(s.cpu.Microseconds()) / float64(s.ops) }
func (s sliceResult) p50() float64       { return median(s.latencies) }

// errStalled reports a slice in whose window no decision completed.
var errStalled = errors.New("no decision completed")

type opSample struct {
	end time.Duration // completion, since the slice's base time
	lat time.Duration
	ok  bool
}

// runSlice drives every client closed loop with zero think time for
// ramp+dur and measures the last dur of it. With several decision
// points a harness goroutine runs a mesh round every meshEvery. Host
// speed is read just before and just after.
func (f *fleet) runSlice(host *hostSpeed, ramp, dur, meshEvery time.Duration) (sliceResult, error) {
	var res sliceResult
	before := host.read()

	var stop atomic.Bool
	base := time.Now()
	recs := make([][]opSample, len(f.clients))
	errs := make([]error, len(f.clients))
	var wg sync.WaitGroup
	for k := range f.clients {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			buf := make([]opSample, 0, 1<<14)
			for !stop.Load() {
				j, err := f.nextJob(k, len(f.clients), timedRuntime)
				if err != nil {
					errs[k] = err
					break
				}
				t0 := time.Now()
				dec := f.clients[k].Schedule(j)
				t1 := time.Now()
				buf = append(buf, opSample{end: t1.Sub(base), lat: t1.Sub(t0), ok: dec.Err == nil && dec.Handled})
			}
			recs[k] = buf
		}(k)
	}
	meshStop := make(chan struct{})
	if len(f.dps) > 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(meshEvery)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					f.exchangeAll()
				case <-meshStop:
					return
				}
			}
		}()
	}

	time.Sleep(ramp)
	cpu0, err0 := processCPU()
	from := time.Since(base)
	time.Sleep(dur)
	cpu1, err1 := processCPU()
	to := time.Since(base)
	stop.Store(true)
	close(meshStop)
	wg.Wait()
	res.speed = (before + host.read()) / 2

	for _, err := range append(errs, err0, err1) {
		if err != nil {
			return res, err
		}
	}
	res.elapsed = to - from
	res.cpu = cpu1 - cpu0
	for _, buf := range recs {
		for _, s := range buf {
			res.attempted++
			if !s.ok {
				res.clientBad++
			}
			if s.end >= from && s.end < to {
				res.ops++
				res.latencies = append(res.latencies, float64(s.lat.Nanoseconds())/1e3)
			}
		}
	}
	sort.Float64s(res.latencies)
	if res.ops == 0 {
		return res, fmt.Errorf("%w in %s", errStalled, dur)
	}
	return res, nil
}

// hostSpeed reads how fast this host is running right now, as the rate
// of a fixed piece of standard-library work relative to nominalRate.
//
// The sandbox this benchmark grew up on drifts: over sets of ten runs
// the same binary's raw timing medians spread by 6–47 % (quartile
// distance over median) while allocation counts stayed exact, and this
// loop's rate moved with them. Timing metrics of the timed phase are
// therefore reported host-speed-adjusted — a time multiplied, a rate
// divided, by the mean of the readings either side of the slice — which
// brought the same runs within 2–11 % (README.md has the tables). On a
// host running at nominal speed, adjusted and raw values coincide; both
// readings of every slice are kept in the result.
type hostSpeed struct {
	window time.Duration // how long one reading runs
	last   float64
	at     time.Time
	reads  []float64
}

const (
	// nominalRate is the loop's rate on the baseline sandbox on a good
	// minute (2 vCPU Xeon 2.1 GHz, go1.24). Its value only fixes the unit
	// of adjusted metrics; changing it rescales every one of them.
	nominalRate = 16000.0
	// speedFresh is how long a reading stands in for the next: a slice
	// that starts right after another shares the reading between them.
	speedFresh = 20 * time.Millisecond
)

// read returns the host speed now (1 = nominal).
func (h *hostSpeed) read() float64 {
	if !h.at.IsZero() && time.Since(h.at) < speedFresh {
		return h.last
	}
	// The work resembles a decision's: reflection-driven gob encoding
	// and decoding of a record slice, map updates, short-lived garbage.
	// An alias of an unnamed struct: it never crosses a wire, so it has
	// no business in the wire-schema lockfile, which tracks named ones.
	type record = struct {
		Name string
		A, B int
		X, Y float64
	}
	recs := make([]record, 100)
	for i := range recs {
		recs[i] = record{Name: fmt.Sprintf("site-%03d", i), A: i, B: 7 * i, X: 1.5 * float64(i), Y: float64(i) / 3}
	}
	start := time.Now()
	n := 0
	for time.Since(start) < h.window {
		var buf bytes.Buffer
		var back []record
		// Neither call can fail on this fixed input into a memory buffer,
		// and the timing, not the value, is the result.
		_ = gob.NewEncoder(&buf).Encode(recs)
		_ = gob.NewDecoder(&buf).Decode(&back)
		m := make(map[string]int, 8)
		for i, r := range back {
			m[r.Name] += i
		}
		n++
	}
	h.last = float64(n) / time.Since(start).Seconds() / nominalRate
	h.at = time.Now()
	h.reads = append(h.reads, h.last)
	return h.last
}

// traceSummary is what one traced slice says about where a decision's
// time went: self time per span name, summed over complete request
// trees.
type traceSummary struct {
	trees   int
	spans   int
	dropped int64
	root    time.Duration            // summed client.schedule durations
	self    map[string]time.Duration // span name → summed self time
}

func summarizeTrace(col *trace.Collector) traceSummary {
	trees := trace.FilterRoots(trace.BuildTrees(col.Records()), trace.PhaseSchedule)
	sum := traceSummary{trees: len(trees), dropped: col.Dropped(), self: map[string]time.Duration{}}
	for _, t := range trees {
		excl, _ := t.Exclusive()
		for name, d := range excl {
			sum.self[name] += d
		}
		sum.root += t.Duration()
		sum.spans += t.Spans
	}
	return sum
}

// perOp converts a duration summed over all trees to µs per decision.
func (t traceSummary) perOp(d time.Duration) float64 {
	if t.trees == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / 1e3 / float64(t.trees)
}

// selfOf is the mean self time per decision of the named spans, in µs.
func (t traceSummary) selfOf(names ...string) float64 {
	var d time.Duration
	for _, n := range names {
		d += t.self[n]
	}
	return t.perOp(d)
}

// selfSum is the self time of every span, summed over all trees.
func (t traceSummary) selfSum() time.Duration {
	var d time.Duration
	for _, v := range t.self {
		d += v
	}
	return d
}

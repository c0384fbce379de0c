package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"digruber/internal/digruber"
	"digruber/internal/gruber"
	"digruber/internal/usla"
	"digruber/internal/wal"
	"digruber/internal/wire"
)

// The ledger calls each layer's public functions in isolation on the
// state the count phase left behind, so every figure has fixed inputs:
// times are means over the stated iteration count, allocations and
// bytes are exact. Read it beside the traced phase — the trace says how
// much of a live decision a layer took, the ledger what the layer's
// building blocks cost on their own.

// cost is the per-call cost of one isolated measurement.
type cost struct {
	ns     float64
	allocs float64
	bytes  float64
}

func (c cost) us() float64 { return c.ns / 1e3 }
func (c cost) ms() float64 { return c.ns / 1e6 }

// measure calls fn n times and returns the mean cost of a call.
func measure(n int, fn func(i int)) cost {
	m0, b0 := allocTotals()
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	elapsed := time.Since(start)
	m1, b1 := allocTotals()
	return cost{
		ns:     float64(elapsed.Nanoseconds()) / float64(n),
		allocs: float64(m1-m0) / float64(n),
		bytes:  float64(b1-b0) / float64(n),
	}
}

// ledgerSink keeps measured results alive so the compiler cannot drop
// the calls that produced them.
var ledgerSink float64

// ledger fills the isolated per-layer metrics of res from fleet f. div
// shrinks every iteration count (1 = the documented counts).
func ledger(res *result, f *fleet, div int, tmpRoot string) error {
	iters := func(n int) int {
		if n /= div; n < 2 {
			n = 2
		}
		return n
	}
	eng := f.dps[0].Engine()
	owner := f.gen.HostOwner(0)
	ownerStr := owner.String()

	// gruber: the engine's read path, selector and write path.
	var loads []gruber.SiteLoad
	sl := measure(iters(500), func(int) { loads = eng.SiteLoads(owner, 1) })
	res.set("gruber.siteloads_us", sl.us())
	res.set("gruber.siteloads_allocs", sl.allocs)
	res.set("gruber.siteloads_kb", sl.bytes/1024)
	callsPerSec := func(callers int) float64 {
		n := iters(500)
		var wg sync.WaitGroup
		start := time.Now()
		for g := 0; g < callers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					eng.SiteLoads(owner, 1)
				}
			}()
		}
		wg.Wait()
		return float64(callers*n) / time.Since(start).Seconds()
	}
	one := callsPerSec(1)
	res.set("gruber.siteloads_par2_scaling", callsPerSec(2)/one)

	sel := measure(iters(500), func(int) {
		if _, ok := (gruber.USLAAware{}).Select(loads, 1); ok {
			ledgerSink++
		}
	})
	res.set("gruber.select_us", sel.us())

	site := f.sites[0]
	now := f.clock.Now()
	fresh := func(tag, origin string, n int) []gruber.Dispatch {
		out := make([]gruber.Dispatch, n)
		for i := range out {
			out[i] = gruber.Dispatch{
				JobID: fmt.Sprintf("ledger-%s-%06d", tag, i), Site: site.Name, Owner: ownerStr,
				CPUs: 1, Runtime: residentRuntime, At: now, Origin: origin, Seq: uint64(i + 1),
			}
		}
		return out
	}
	recs := fresh("record", "", iters(2000))
	rec := measure(len(recs), func(i int) { eng.RecordDispatch(recs[i]) })
	res.set("gruber.record_us", rec.us())
	res.set("gruber.record_allocs", rec.allocs)

	// gruber replication paths: what a mesh round costs each engine.
	for _, name := range []string{"gruber.merge256_us", "gruber.merge256_allocs", "gruber.export256_us",
		"gruber.gossip_since256_us", "gruber.gossip_merge256_us", "gruber.snapshot_export_ms"} {
		res.set(name, 0)
	}
	if len(f.dps) > 1 {
		const batch = 256
		rounds := iters(20)
		remote := fresh("merge", "ledger-peer", rounds*batch)
		mr := measure(rounds, func(i int) { ledgerSink += float64(eng.MergeRemote(remote[i*batch : (i+1)*batch])) })
		res.set("gruber.merge256_us", mr.us())
		res.set("gruber.merge256_allocs", mr.allocs)

		hi := eng.LocalSeqHighWater()
		cursor := uint64(0)
		if hi > batch {
			cursor = hi - batch
		}
		ex := measure(iters(200), func(int) {
			out, _ := eng.LocalDispatchesAfter(cursor)
			ledgerSink += float64(len(out))
		})
		res.set("gruber.export256_us", ex.us())
		vv := eng.OriginVector()
		vv[eng.Name()] = cursor
		gs := measure(iters(200), func(int) { ledgerSink += float64(len(eng.DispatchesSince(vv, 0))) })
		res.set("gruber.gossip_since256_us", gs.us())
		relayed := fresh("gossip", "ledger-origin", rounds*batch)
		gm := measure(rounds, func(i int) {
			ledgerSink += float64(eng.MergeGossip("ledger-origin", relayed[i*batch:(i+1)*batch]).Stored)
		})
		res.set("gruber.gossip_merge256_us", gm.us())
		se := measure(iters(5), func(int) { ledgerSink += float64(len(eng.ExportSnapshot())) })
		res.set("gruber.snapshot_export_ms", se.ms())
	}

	// usla: one site × owner evaluation; the engine runs it per site per
	// decision, and ParsePath once per request.
	capacity := float64(site.TotalCPUs)
	noUsage := func(usla.Path) float64 { return 0 }
	hr := measure(iters(20000), func(int) {
		ledgerSink += f.policies.Headroom(site.Name, owner, usla.CPU, capacity, noUsage)
	})
	res.set("usla.headroom_ns", hr.ns)
	res.set("usla.headroom_allocs", hr.allocs)
	tg := measure(iters(20000), func(int) {
		ledgerSink += f.policies.TargetGap(site.Name, owner, usla.CPU, capacity, noUsage)
	})
	res.set("usla.targetgap_ns", tg.ns)
	pp := measure(iters(20000), func(int) {
		if _, err := usla.ParsePath(ownerStr); err == nil {
			ledgerSink++
		}
	})
	res.set("usla.parsepath_ns", pp.ns)

	// bench: the generator must stay far below a decision's cost.
	gen := measure(iters(20000), func(i int) {
		if _, err := f.gen.NextJob(i % hosts); err == nil {
			ledgerSink++
		}
	})
	res.set("bench.gen_ns_per_job", gen.ns)

	if err := ledgerWire(res, f, loads, iters); err != nil {
		return err
	}
	return ledgerWAL(res, f, iters, tmpRoot)
}

// ledgerWire measures the RPC layer over the workload's own transport:
// a 16-byte echo (per-message fixed cost), a canned 300-entry
// QueryReply (per-byte cost), and the Status RPC digruber-top polls.
func ledgerWire(res *result, f *fleet, loads []gruber.SiteLoad, iters func(int) int) error {
	canned := make([]gruber.SiteLoad, 300)
	for i := range canned {
		canned[i] = loads[i%len(loads)]
	}
	srv := wire.NewServer("ledger", wire.Instant(), f.clock)
	// A one-string struct, not a bare []byte: gob sends type descriptors
	// with every struct body, which is most of a small message's cost.
	wire.Handle(srv, "echo", func(a digruber.PublishedArgs) (digruber.PublishedArgs, error) { return a, nil })
	wire.Handle(srv, "reply300", func(digruber.QueryArgs) (digruber.QueryReply, error) {
		return digruber.QueryReply{Loads: canned}, nil
	})
	addr := "ledger"
	if f.spec.tcp {
		var err error
		if addr, err = freeLoopbackAddr(); err != nil {
			return err
		}
	}
	l, err := f.net.Listen(addr)
	if err != nil {
		return err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(l) // returns once the listener closes below; nothing to report
	}()
	defer func() {
		srv.Close()
		l.Close()
		<-served
	}()
	dial := func(addr string) *wire.Client {
		return wire.NewClient(wire.ClientConfig{Node: "ledger-client", Addr: addr, Transport: f.net, Clock: f.clock})
	}
	cl := dial(l.Addr())
	defer cl.Close()

	// call measures n calls of fn and the bytes they put on the wire. One
	// call first: dial and gob type exchange stay outside the measurement.
	call := func(n int, fn func() error) (cost, float64, error) {
		err := fn()
		if err != nil {
			return cost{}, 0, err
		}
		bytes0 := f.net.wireBytes()
		c := measure(n, func(int) {
			if e := fn(); e != nil {
				err = e
			}
		})
		return c, float64(f.net.wireBytes()-bytes0) / float64(n), err
	}
	payload := digruber.PublishedArgs{Provider: "0123456789abcdef"}
	echo, echoBytes, err := call(iters(5000), func() error {
		_, err := wire.Call[digruber.PublishedArgs, digruber.PublishedArgs](cl, "echo", payload, clientTimeout)
		return err
	})
	if err != nil {
		return fmt.Errorf("ledger echo: %w", err)
	}
	res.set("wire.echo_us", echo.us())
	res.set("wire.echo_allocs", echo.allocs)
	res.set("wire.echo_wire_bytes", echoBytes)

	r300, r300Bytes, err := call(iters(1000), func() error {
		_, err := wire.Call[digruber.QueryArgs, digruber.QueryReply](cl, "reply300", digruber.QueryArgs{Owner: "vo-00.group-00", CPUs: 1}, clientTimeout)
		return err
	})
	if err != nil {
		return fmt.Errorf("ledger reply300: %w", err)
	}
	res.set("wire.reply300_us", r300.us())
	res.set("wire.reply300_allocs", r300.allocs)
	res.set("wire.reply300_wire_bytes", r300Bytes)

	dp := dial(f.dps[0].Addr())
	defer dp.Close()
	status, _, err := call(iters(500), func() error {
		_, err := wire.Call[digruber.StatusArgs, digruber.StatusReply](dp, digruber.MethodStatus, digruber.StatusArgs{}, clientTimeout)
		return err
	})
	if err != nil {
		return fmt.Errorf("ledger status: %w", err)
	}
	res.set("digruber.status_us", status.us())
	return nil
}

// ledgerWAL measures the write-ahead log on its own: a 200-byte append
// to real files (write+fsync on this host's disk) and to memory
// (framing and CRC only), recovery decode, and a checkpoint of the
// count-phase engine state.
func ledgerWAL(res *result, f *fleet, iters func(int) int, tmpRoot string) error {
	for _, name := range []string{"wal.append_us", "wal.append_mem_us", "wal.decode_ms_per_krecord", "wal.checkpoint_ms"} {
		res.set(name, 0)
	}
	if !f.spec.durable {
		return nil
	}
	payload := make([]byte, 200)
	var appendErr error
	appendTo := func(store wal.Store, n int) (cost, error) {
		log := wal.Open(store)
		if _, err := log.Recover(); err != nil {
			return cost{}, err
		}
		c := measure(n, func(int) {
			if err := log.Append(payload); err != nil {
				appendErr = err
			}
		})
		if err := log.Close(); err != nil {
			return c, err
		}
		return c, appendErr
	}

	if err := os.MkdirAll(tmpRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(tmpRoot, "ledger-wal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	disk, err := wal.NewDirStore(dir)
	if err != nil {
		return err
	}
	onDisk, err := appendTo(disk, iters(300))
	if err != nil {
		return fmt.Errorf("ledger wal append (dir): %w", err)
	}
	res.set("wal.append_us", onDisk.us())

	mem := wal.NewMemStore()
	records := iters(5000)
	inMem, err := appendTo(mem, records)
	if err != nil {
		return fmt.Errorf("ledger wal append (mem): %w", err)
	}
	res.set("wal.append_mem_us", inMem.us())

	var recoverErr error
	dec := measure(iters(10), func(int) {
		got, err := wal.Open(mem).Recover()
		if err != nil || len(got.Records) != records {
			recoverErr = fmt.Errorf("recovered %d of %d records: %v", len(got.Records), records, err)
		}
	})
	if recoverErr != nil {
		return fmt.Errorf("ledger wal recover: %w", recoverErr)
	}
	res.set("wal.decode_ms_per_krecord", dec.ms()/(float64(records)/1000))

	var ckptErr error
	ck := measure(iters(3), func(int) {
		if err := f.dps[0].CheckpointNow(); err != nil {
			ckptErr = err
		}
	})
	if ckptErr != nil {
		return fmt.Errorf("ledger checkpoint: %w", ckptErr)
	}
	res.set("wal.checkpoint_ms", ck.ms())
	return nil
}

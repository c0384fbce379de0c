package digruber

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"digruber/internal/grid"
	"digruber/internal/gruber"
	"digruber/internal/netsim"
	"digruber/internal/vtime"
	"digruber/internal/wal"
	"digruber/internal/wire"
)

// Contract tests for the commit path (DESIGN.md, "The commit path"): the
// disk is waited for outside the engine lock, nothing is acked or leaves
// the engine before its fsync returned, a refused commit fails exactly
// the requests in it, and the log holds the bytes it always held.

// gateStore is a MemStore whose log segment's Sync can be held: while
// hold is set every Sync announces itself on entered and then waits for
// a value on release, returning it if non-nil (the fsync a dying process
// never saw return) and syncing for real otherwise.
type gateStore struct {
	*wal.MemStore
	hold    atomic.Bool
	entered chan struct{}
	release chan error
}

func newGateStore() *gateStore {
	return &gateStore{MemStore: wal.NewMemStore(), entered: make(chan struct{}), release: make(chan error)}
}

type gateSegment struct {
	wal.Segment
	s *gateStore
}

func (s *gateStore) Segment(name string) (wal.Segment, error) {
	seg, err := s.MemStore.Segment(name)
	return gateSegment{seg, s}, err
}

func (g gateSegment) Sync() error {
	if g.s.hold.Load() {
		g.s.entered <- struct{}{}
		if err := <-g.s.release; err != nil {
			return err
		}
	}
	return g.Segment.Sync()
}

// roomyStatuses is a grid no test here can fill.
func roomyStatuses(n int) []grid.Status {
	out := make([]grid.Status, n)
	for i := range out {
		out[i] = grid.Status{Name: fmt.Sprintf("site-%03d", i), TotalCPUs: 100000, FreeCPUs: 100000, UsageByPath: map[string]int{}}
	}
	return out
}

func testWireClient(t *testing.T, mem *wire.Mem, clock vtime.Clock, dp *DecisionPoint) *wire.Client {
	t.Helper()
	cli := wire.NewClient(wire.ClientConfig{Node: "tester", ServerNode: dp.Name(), Addr: dp.Addr(), Transport: mem, Clock: clock})
	t.Cleanup(func() { cli.Close() })
	return cli
}

func callSchedule(cli *wire.Client, jobID string) (ScheduleReply, error) {
	return wire.Call[ScheduleArgs, ScheduleReply](cli, MethodSchedule,
		ScheduleArgs{JobID: jobID, Owner: "atlas", CPUs: 1, Runtime: 2 * time.Hour}, 30*time.Second)
}

// within fails the test unless ch delivers inside a generous real-time
// bound — a hang turned into a message.
func within[T any](t *testing.T, what string, ch <-chan T) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(20 * time.Second):
		t.Fatalf("%s did not finish", what)
		panic("unreachable")
	}
}

// async runs fn on its own goroutine and returns where its result lands.
func async[T any](fn func() T) <-chan T {
	ch := make(chan T, 1)
	go func() { ch <- fn() }()
	return ch
}

// settled reports whether ch already holds its result.
func settled[T any](ch <-chan T) bool { return len(ch) > 0 }

func jobIDs(ds []gruber.Dispatch) string {
	ids := make([]string, len(ds))
	for i, d := range ds {
		ids[i] = d.JobID
	}
	return strings.Join(ids, ",")
}

// TestCommitOffTheEngineLock: while a record's fsync is in progress the
// engine serves queries (it did not when the sync sat inside the lock),
// the Schedule that brokered the record has not been answered, and no
// export hands the record or its sequence number out.
func TestCommitOffTheEngineLock(t *testing.T) {
	clock := vtime.NewManual(epoch)
	mem := wire.NewMem()
	store := newGateStore()
	dp := newDurableDP(t, clock, mem, "dp-0", store, -1)
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dp.Stop)
	cli := testWireClient(t, mem, clock, dp)
	e := dp.Engine()

	store.hold.Store(true)
	type ack struct {
		reply ScheduleReply
		err   error
	}
	acked := async(func() ack { r, err := callSchedule(cli, "job-a"); return ack{r, err} })
	within(t, "the record reaching its fsync", store.entered)

	// The disk is busy and the engine is not: read lock and write lock
	// are both free, and the view already counts the record.
	loads := within(t, "SiteLoads during the fsync", async(func() []gruber.SiteLoad {
		return e.SiteLoads(testJob("q").Owner, 1)
	}))
	if len(loads) != 2 {
		t.Fatalf("SiteLoads returned %d sites", len(loads))
	}
	if got := within(t, "PendingDispatches during the fsync", async(e.PendingDispatches)); got != 1 {
		t.Fatalf("view holds %d dispatches during the fsync, want the 1 being synced", got)
	}

	after := async(func() []gruber.Dispatch { ds, _ := e.LocalDispatchesAfter(0); return ds })
	since := async(func() []gruber.Dispatch { return e.DispatchesSince(nil, 0) })
	snap := async(e.ExportSnapshot)
	vector := async(e.OriginVector)
	time.Sleep(30 * time.Millisecond) // grace for a wrong build to get its answers out
	if settled(acked) {
		t.Fatal("Schedule was answered before the record's fsync returned")
	}
	if settled(after) || settled(since) || settled(snap) || settled(vector) {
		t.Fatalf("an export returned during the fsync: LocalDispatchesAfter=%v DispatchesSince=%v ExportSnapshot=%v OriginVector=%v",
			settled(after), settled(since), settled(snap), settled(vector))
	}

	store.hold.Store(false)
	store.release <- nil
	if a := within(t, "Schedule", acked); a.err != nil || !a.reply.OK {
		t.Fatalf("Schedule after the fsync: %+v, %v", a.reply, a.err)
	}
	for what, ch := range map[string]<-chan []gruber.Dispatch{"LocalDispatchesAfter": after, "DispatchesSince": since, "ExportSnapshot": snap} {
		if ds := within(t, what, ch); jobIDs(ds) != "job-a" {
			t.Fatalf("%s after the fsync returned %q, want job-a", what, jobIDs(ds))
		}
	}
	if vv := within(t, "OriginVector", vector); vv["dp-0"] != 1 {
		t.Fatalf("OriginVector after the fsync = %v", vv)
	}
}

// TestRefusedCommitFailsTheRequest: no ack for a record the log refused.
// A failing fsync planted before a Schedule, before a Report and before
// the second of two Schedules in flight together fails exactly those
// requests; the records stay in the view, unacked; the errors are
// counted; the next request is acked and durable.
func TestRefusedCommitFailsTheRequest(t *testing.T) {
	clock := vtime.NewManual(epoch)
	mem := wire.NewMem()
	store := newGateStore()
	dp := newDurableDP(t, clock, mem, "dp-0", store, -1)
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dp.Stop)
	cli := testWireClient(t, mem, clock, dp)
	report := func(id string) error {
		_, err := wire.Call[ReportArgs, ReportReply](cli, MethodReport, ReportArgs{Dispatch: gruber.Dispatch{
			JobID: id, Site: "site-000", Owner: "atlas", CPUs: 1, Runtime: 2 * time.Hour, At: clock.Now(),
		}}, 30*time.Second)
		return err
	}
	wantErrors := func(n int64) {
		t.Helper()
		if got := dp.WALStats().AppendErrors; got != n {
			t.Fatalf("wal/append_errors = %d, want %d", got, n)
		}
	}

	store.FailNextSyncs(1)
	if _, err := callSchedule(cli, "sched-refused"); err == nil || !strings.Contains(err.Error(), "not durable") {
		t.Fatalf("Schedule over a failing fsync: %v", err)
	}
	wantErrors(1)
	if _, err := callSchedule(cli, "sched-ok"); err != nil {
		t.Fatalf("Schedule after the failure: %v", err)
	}

	store.FailNextSyncs(1)
	if err := report("report-refused"); err == nil || !strings.Contains(err.Error(), "not durable") {
		t.Fatalf("Report over a failing fsync: %v", err)
	}
	wantErrors(2)
	if err := report("report-ok"); err != nil {
		t.Fatalf("Report after the failure: %v", err)
	}

	// Two Schedules in flight: the first is at its fsync when the second
	// is brokered, so the second is the next batch — the one that fails.
	store.hold.Store(true)
	first := async(func() error { _, err := callSchedule(cli, "pair-first"); return err })
	within(t, "the first Schedule reaching its fsync", store.entered)
	second := async(func() error { _, err := callSchedule(cli, "pair-second"); return err })
	for dp.Engine().Stats().LocalDispatches < 6 {
		time.Sleep(time.Millisecond) // until the second is queued behind the first
	}
	store.release <- nil
	within(t, "the second Schedule reaching its fsync", store.entered)
	store.hold.Store(false)
	store.FailNextSyncs(1)
	store.release <- nil
	if err := within(t, "the first Schedule", first); err != nil {
		t.Fatalf("first of the pair: %v", err)
	}
	if err := within(t, "the second Schedule", second); err == nil {
		t.Fatal("second of the pair was acked over a failing fsync")
	}
	wantErrors(3)
	if _, err := callSchedule(cli, "last-ok"); err != nil {
		t.Fatalf("Schedule after the pair: %v", err)
	}

	// Kept but unacked: all seven are in the view. The log holds exactly
	// the four that were acked.
	if got := dp.Engine().PendingDispatches(); got != 7 {
		t.Fatalf("view holds %d dispatches, want 7 (refused records stay, unacked)", got)
	}
	dp.Crash()
	if err := dp.Restart(); err != nil {
		t.Fatal(err)
	}
	if rec := dp.LastRecovery(); rec.Recovered != 4 || rec.Truncated {
		t.Fatalf("recovery = %+v, want the 4 acked records, clean", rec)
	}
	if got := jobIDs(dp.Engine().ExportSnapshot()); got != "last-ok,pair-first,report-ok,sched-ok" {
		t.Fatalf("recovered %q", got)
	}
	// Numbering goes on past the refused records' sequence numbers.
	if hi := dp.Engine().LocalSeqHighWater(); hi != 7 {
		t.Fatalf("recovered high-water mark %d, want 7", hi)
	}
}

// encodeWALEntry is the definition of a write-ahead record: what a fresh
// gob encoder writes for the entry, type descriptors included. It is
// what every build before the committer ran per record.
func encodeWALEntry(e walEntry) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(e); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// TestEntryEncoderMatchesFreshEncoder: the committer's one primed
// encoder writes, record for record, the bytes of a fresh encoder, and
// each decodes alone.
func TestEntryEncoderMatchesFreshEncoder(t *testing.T) {
	rng := netsim.Stream(23, "digruber.test.walentry")
	str := func() string {
		switch rng.Intn(4) {
		case 0:
			return ""
		case 1:
			return strings.Repeat("long-", 1+rng.Intn(400))
		default:
			return fmt.Sprintf("s-%d", rng.Intn(1000))
		}
	}
	num := func() int64 {
		if rng.Intn(3) == 0 {
			return 0
		}
		return rng.Int63n(1<<40) - 1<<20
	}
	enc := newEntryEncoder()
	var batch []byte
	for i := 0; i < 1000; i++ {
		en := walEntry{Logged: rng.Intn(2) == 0, D: gruber.Dispatch{
			JobID: str(), Site: str(), Owner: str(), Origin: str(),
			CPUs: int(num()), Runtime: time.Duration(num()), Seq: uint64(rng.Int63n(3)) * uint64(rng.Int63()),
		}}
		if rng.Intn(3) > 0 {
			en.D.At = epoch.Add(time.Duration(num()))
		}
		want, err := encodeWALEntry(en)
		if err != nil {
			t.Fatal(err)
		}
		start := len(batch)
		if batch, err = enc.appendEntry(batch, &en); err != nil {
			t.Fatal(err)
		}
		got := batch[start:]
		if !bytes.Equal(got, want) {
			t.Fatalf("entry %d %+v:\n primed %x\n  fresh %x", i, en, got, want)
		}
		back, err := decodeWALEntry(got)
		if err != nil {
			t.Fatalf("entry %d does not decode alone: %v", i, err)
		}
		sameAt := back.D.At.Equal(en.D.At)
		back.D.At = en.D.At // Equal, not ==: the location pointer does not round-trip
		if !sameAt || back != en {
			t.Fatalf("entry %d decoded as %+v, want %+v", i, back, en)
		}
	}
}

// TestMeshMergeIsOneCommit: a 256-record merge is queued under one hold
// of the engine lock and committed behind at most two fsyncs (256 before
// the committer, all under the lock), and every record is recovered.
func TestMeshMergeIsOneCommit(t *testing.T) {
	records := func(origin string) []gruber.Dispatch {
		out := make([]gruber.Dispatch, 256)
		for i := range out {
			out[i] = gruber.Dispatch{
				JobID: fmt.Sprintf("%s-job-%03d", origin, i), Site: "site-000", Owner: "atlas",
				CPUs: 1, Runtime: 2 * time.Hour, At: epoch, Origin: origin, Seq: uint64(i + 1),
			}
		}
		return out
	}
	for name, merge := range map[string]func(e *gruber.Engine) int{
		"MergeRemote": func(e *gruber.Engine) int { return e.MergeRemote(records("dp-1")) },
		"MergeGossip": func(e *gruber.Engine) int { return e.MergeGossip("dp-1", records("dp-1")).Stored },
	} {
		t.Run(name, func(t *testing.T) {
			clock := vtime.NewManual(epoch)
			store := wal.NewMemStore()
			dp := newDurableDP(t, clock, wire.NewMem(), "dp-0", store, -1)
			dp.Engine().UpdateSites(roomyStatuses(1), clock.Now())
			if err := dp.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(dp.Stop)
			before := store.Syncs()
			if got := merge(dp.Engine()); got != 256 {
				t.Fatalf("merged %d records", got)
			}
			if syncs := store.Syncs() - before; syncs > 2 {
				t.Fatalf("256 merged records cost %d fsyncs, want at most 2", syncs)
			}
			if st := dp.WALStats(); st.Appends != 256 {
				t.Fatalf("wal stats = %+v", st)
			}
			dp.Crash()
			if err := dp.Restart(); err != nil {
				t.Fatal(err)
			}
			if rec := dp.LastRecovery(); rec.Recovered != 256 || rec.Truncated {
				t.Fatalf("recovery = %+v", rec)
			}
			if got := dp.Engine().PendingDispatches(); got != 256 {
				t.Fatalf("recovered view holds %d dispatches", got)
			}
		})
	}
}

// TestConcurrentSchedulesAllDurable: eight callers, one durable point.
// Every acked job is in the engine a crash and restart rebuild from the
// store alone, batches share fsyncs and never split them, and the own
// log's numbering has no gap.
func TestConcurrentSchedulesAllDurable(t *testing.T) {
	const callers, each = 8, 500
	clock := vtime.NewManual(epoch)
	mem := wire.NewMem()
	store := wal.NewMemStore()
	dp := newDurableDP(t, clock, mem, "dp-0", store, -1)
	dp.Engine().UpdateSites(roomyStatuses(2), clock.Now())
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dp.Stop)
	syncsBefore := store.Syncs()

	var wg sync.WaitGroup
	acked := make([][]string, callers)
	for c := 0; c < callers; c++ {
		cli := testWireClient(t, mem, clock, dp)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := fmt.Sprintf("c%d-job-%03d", c, i)
				if r, err := callSchedule(cli, id); err != nil || !r.OK {
					t.Errorf("%s: %+v, %v", id, r, err)
					return
				}
				acked[c] = append(acked[c], id)
			}
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	st := dp.WALStats()
	if syncs := store.Syncs() - syncsBefore; st.Appends != callers*each || syncs > st.Appends {
		t.Fatalf("%d appends behind %d fsyncs", st.Appends, syncs)
	}

	dp.Crash()
	if err := dp.Restart(); err != nil {
		t.Fatal(err)
	}
	held := make(map[string]bool)
	own, hi := dp.Engine().LocalDispatchesAfter(0)
	for i, d := range own {
		held[d.JobID] = true
		if d.Seq != uint64(i+1) {
			t.Fatalf("own log record %d carries sequence number %d", i, d.Seq)
		}
	}
	if hi != callers*each || len(own) != callers*each {
		t.Fatalf("recovered own log: %d records, high-water mark %d, want %d", len(own), hi, callers*each)
	}
	for _, ids := range acked {
		for _, id := range ids {
			if !held[id] {
				t.Fatalf("acked job %s is not in the recovered engine", id)
			}
		}
	}
}

// TestStopAndCrashWithRequestsInFlight: stopping or crashing a point
// whose committer is in the middle of an fsync, with a request waiting
// on it and another queued behind, returns, leaks no goroutine, and the
// point serves again after a Restart.
func TestStopAndCrashWithRequestsInFlight(t *testing.T) {
	baseline := runtime.NumGoroutine()
	clock := vtime.NewManual(epoch)
	mem := wire.NewMem()
	store := newGateStore()
	dp := newDurableDP(t, clock, mem, "dp-0", store, -1)
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	job := 0
	for _, halt := range []func(){dp.Stop, dp.Crash} {
		cli := wire.NewClient(wire.ClientConfig{Node: "tester", ServerNode: dp.Name(), Addr: dp.Addr(), Transport: mem, Clock: clock})
		store.hold.Store(true)
		brokered := dp.Engine().Stats().LocalDispatches
		var calls []<-chan error
		for i := 0; i < 2; i++ {
			id := fmt.Sprintf("inflight-%d", job)
			job++
			calls = append(calls, async(func() error { _, err := callSchedule(cli, id); return err }))
			if i == 0 {
				within(t, "the first request reaching its fsync", store.entered)
			}
		}
		for dp.Engine().Stats().LocalDispatches < brokered+2 {
			time.Sleep(time.Millisecond) // until the second is queued
		}
		halted := async(func() bool { halt(); return true })
		store.hold.Store(false)
		store.release <- nil
		within(t, "Stop/Crash with requests in flight", halted)
		for _, c := range calls {
			within(t, "a request in flight across the halt", c) // acked or failed, but answered
		}
		cli.Close()

		if err := dp.Restart(); err != nil {
			t.Fatal(err)
		}
		cli = wire.NewClient(wire.ClientConfig{Node: "tester", ServerNode: dp.Name(), Addr: dp.Addr(), Transport: mem, Clock: clock})
		if r, err := callSchedule(cli, fmt.Sprintf("after-%d", job)); err != nil || !r.OK {
			t.Fatalf("Schedule after the restart: %+v, %v", r, err)
		}
		cli.Close()
	}
	dp.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the test:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

var storeImageChild = flag.Bool("store-image-child", false, "internal: print the store image digests of TestStoreImageMatchesParent's sequence")

// TestStoreImageMatchesParent: the log holds the bytes it always held.
// One fixed single-threaded sequence — 1000 Schedules, a checkpoint, 100
// more, on a Manual clock and a MemStore — leaves a wal.log and a
// checkpoint whose SHA-256 are those the build before the committer
// (e058e8c: a fresh gob encoder, a write and an fsync per record, under
// the engine lock) leaves for it. The sequence runs in a child process:
// gob numbers types process-wide in order of first use, so the bytes
// depend on what the process encoded before.
func TestStoreImageMatchesParent(t *testing.T) {
	if *storeImageChild {
		fmt.Println(storeImageDigests(t))
		return
	}
	out, err := exec.Command(os.Args[0], "-test.run=^TestStoreImageMatchesParent$", "-store-image-child").Output()
	if err != nil {
		t.Fatalf("child process: %v\n%s", err, out)
	}
	const parent = "wal.log cd462430ddeda46bf05af6c3561201a42460271114fc88fdfe7c7c7bbf31b8fe" +
		" checkpoint 529b10eb734bc00ec9a234b7eafa7c00fc38e6397c8d059d8d5726b86e5db886"
	if got := strings.SplitN(string(out), "\n", 2)[0]; got != parent {
		t.Fatalf("store image differs from the parent build's:\n got %s\nwant %s", got, parent)
	}
}

func storeImageDigests(t *testing.T) string {
	clock := vtime.NewManual(epoch)
	mem := wire.NewMem()
	store := wal.NewMemStore()
	dp := newDurableDP(t, clock, mem, "dp-0", store, -1)
	dp.Engine().UpdateSites(roomyStatuses(3), clock.Now())
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()
	cli := wire.NewClient(wire.ClientConfig{Node: "tester", ServerNode: dp.Name(), Addr: dp.Addr(), Transport: mem, Clock: clock})
	defer cli.Close()
	schedule := func(from, to int) {
		for i := from; i < to; i++ {
			clock.Advance(time.Second)
			if r, err := callSchedule(cli, fmt.Sprintf("job-%04d", i)); err != nil || !r.OK {
				t.Fatalf("job %d: %+v, %v", i, r, err)
			}
		}
	}
	schedule(0, 1000)
	if err := dp.CheckpointNow(); err != nil {
		t.Fatal(err)
	}
	schedule(1000, 1100)
	var parts []string
	for _, name := range []string{"wal.log", "checkpoint"} {
		r, err := store.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, fmt.Sprintf("%s %x", name, sha256.Sum256(data)))
	}
	return strings.Join(parts, " ")
}

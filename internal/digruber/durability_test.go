package digruber

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"testing"
	"time"

	"digruber/internal/gruber"
	"digruber/internal/vtime"
	"digruber/internal/wal"
	"digruber/internal/wire"
)

// newDurableDP builds one decision point backed by the given write-ahead
// store, with sites loaded and peers unregistered (callers mesh them).
func newDurableDP(t *testing.T, clock vtime.Clock, mem *wire.Mem, name string, store wal.Store, every int) *DecisionPoint {
	t.Helper()
	dp, err := New(Config{
		Name: name, Addr: name,
		Transport: mem, Clock: clock, Profile: wire.Instant(),
		Strategy:         UsageOnly,
		ExchangeInterval: 24 * time.Hour, // rounds driven by hand
		PeerTimeout:      30 * time.Second,
		Durability:       &DurabilityConfig{Store: store, CheckpointEvery: every},
	})
	if err != nil {
		t.Fatal(err)
	}
	dp.Engine().UpdateSites(testStatuses(100, 100), clock.Now())
	return dp
}

func durTestDispatch(i int, at time.Time) gruber.Dispatch {
	return gruber.Dispatch{
		JobID: fmt.Sprintf("job-%03d", i), Site: "site-000", Owner: "atlas",
		CPUs: 1, Runtime: 2 * time.Hour, At: at,
	}
}

// TestDurableRecoveryZeroAckedLoss is the tentpole's core contract with
// no peers at all: every dispatch acked before the crash is on stable
// storage, so a cold restart from the store alone rebuilds the full
// view and continues the sequence numbering.
func TestDurableRecoveryZeroAckedLoss(t *testing.T) {
	clock := vtime.NewManual(epoch)
	mem := wire.NewMem()
	store := wal.NewMemStore()
	dp := newDurableDP(t, clock, mem, "dp-0", store, 0)
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dp.Stop)
	const n = 8
	for i := 0; i < n; i++ {
		// RecordDispatch returning nil IS the ack: it waits, the engine
		// lock released, for the commit that holds its record.
		if err := dp.Engine().RecordDispatch(durTestDispatch(i, clock.Now())); err != nil {
			t.Fatal(err)
		}
	}
	if got := dp.WALStats().Appends; got != n {
		t.Fatalf("wal appends = %d, want %d", got, n)
	}

	dp.Crash()
	if got := dp.Engine().PendingDispatches(); got != 0 {
		t.Fatalf("pending after crash = %d, want 0 (dynamic state dropped)", got)
	}
	if err := dp.Restart(); err != nil {
		t.Fatal(err)
	}
	rec := dp.LastRecovery()
	if rec.Recovered != n || rec.Truncated || rec.Backfilled != 0 {
		t.Fatalf("recovery = %+v, want %d records, no truncation, no backfill", rec, n)
	}
	if got := dp.Engine().PendingDispatches(); got != n {
		t.Fatalf("pending after recovery = %d, want %d (zero acked-dispatch loss)", got, n)
	}
	dp.Engine().RecordDispatch(durTestDispatch(99, clock.Now()))
	if hi := dp.Engine().LocalSeqHighWater(); hi != n+1 {
		t.Fatalf("post-recovery dispatch stamped seq %d, want %d (numbering continues)", hi, n+1)
	}
}

// TestCheckpointInAnotherLayoutIsCorrupt: a checkpoint another build
// wrote — here EngineState's two fields in the other order, which gob
// would read by name — is refused: recovery reports it corrupt and
// restores nothing from it, as for a checkpoint that fails its checksum.
func TestCheckpointInAnotherLayoutIsCorrupt(t *testing.T) {
	type otherState struct {
		View    []gruber.Dispatch
		Origins []gruber.OriginState
	}
	clock := vtime.NewManual(epoch)
	store := wal.NewMemStore()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(otherState{View: []gruber.Dispatch{durTestDispatch(1, clock.Now())}}); err != nil {
		t.Fatal(err)
	}
	if err := wal.Open(store).Checkpoint(payload.Bytes()); err != nil {
		t.Fatal(err)
	}
	dp := newDurableDP(t, clock, wire.NewMem(), "dp-0", store, 0)
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dp.Stop)
	if rec := dp.LastRecovery(); !rec.CheckpointCorrupt || rec.CheckpointRestored {
		t.Errorf("recovery = %+v, want the checkpoint refused as corrupt", rec)
	}
	if got := dp.Engine().PendingDispatches(); got != 0 {
		t.Errorf("%d dispatches restored from the checkpoint, want none", got)
	}
}

// TestDurableKillBetweenEnqueueAndSync moves the kill inside the commit
// window: the record is stamped, in the view and queued, its fsync has
// not returned, and the process dies. Only that record is lost — it was
// never acked and never left the engine — and the restarted point hands
// its sequence number to the next job without any peer holding it.
func TestDurableKillBetweenEnqueueAndSync(t *testing.T) {
	clock := vtime.NewManual(epoch)
	mem := wire.NewMem()
	s0, s1 := newGateStore(), wal.NewMemStore()
	dp0 := newDurableDP(t, clock, mem, "dp-0", s0, -1)
	dp1 := newDurableDP(t, clock, mem, "dp-1", s1, -1)
	Connect(dp0, dp1)
	for _, dp := range []*DecisionPoint{dp0, dp1} {
		if err := dp.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(dp.Stop)
	}
	cli := testWireClient(t, mem, clock, dp0)
	if _, err := callSchedule(cli, "acked"); err != nil {
		t.Fatal(err)
	}
	onDisk := s0.Size("wal.log")

	s0.hold.Store(true)
	doomed := async(func() error { _, err := callSchedule(cli, "doomed"); return err })
	within(t, "the record reaching its fsync", s0.entered)
	// A round starts inside the window: its export waits for the fsync,
	// so the record cannot reach dp-1 ahead of the disk.
	round := async(dp0.ExchangeNow)
	time.Sleep(30 * time.Millisecond) // grace for a wrong build to send it
	if settled(round) || settled(doomed) {
		t.Fatalf("inside the commit window: exchange round done=%v, Schedule answered=%v", settled(round), settled(doomed))
	}
	killed := async(func() bool { dp0.Crash(); return true })
	for stopping := false; !stopping; time.Sleep(time.Millisecond) {
		// Until Crash is waiting for the committer: the connections are
		// closed by then, as a dead process's are.
		dp0.dur.commits.mu.Lock()
		stopping = dp0.dur.commits.wake == nil
		dp0.dur.commits.mu.Unlock()
	}
	s0.hold.Store(false)
	s0.release <- errors.New("process killed during fsync")
	within(t, "Crash", killed)
	within(t, "the exchange round", round)
	if err := within(t, "the doomed Schedule", doomed); err == nil {
		t.Fatal("a Schedule whose fsync never returned was acked")
	}
	// The write never reached the platter.
	if !s0.Truncate("wal.log", onDisk) {
		t.Fatal("truncate failed")
	}

	if err := dp0.Restart(); err != nil {
		t.Fatal(err)
	}
	if rec := dp0.LastRecovery(); rec.Recovered != 1 || rec.Truncated || rec.Backfilled != 0 {
		t.Fatalf("recovery = %+v, want the one acked record", rec)
	}
	if got := jobIDs(dp1.Engine().ExportSnapshot()); got != "" {
		t.Fatalf("dp-1 holds %q: a record left dp-0 before it was durable", got)
	}
	if _, err := callSchedule(testWireClient(t, mem, clock, dp0), "next"); err != nil {
		t.Fatal(err)
	}
	own, hi := dp0.Engine().LocalDispatchesAfter(0)
	if hi != 2 || jobIDs(own) != "acked,next" {
		t.Fatalf("own log after the restart: %q, high-water mark %d; want acked,next and 2", jobIDs(own), hi)
	}
	dp0.ExchangeNow()
	if got := jobIDs(dp1.Engine().ExportSnapshot()); got != "acked,next" {
		t.Fatalf("dp-1 holds %q after the round, want acked,next", got)
	}
}

// TestDurableCheckpointCompacts: once CheckpointEvery appends have
// accumulated, the next synchronization round checkpoints and compacts
// the log, and a later recovery restores checkpoint-then-tail instead
// of replaying everything.
func TestDurableCheckpointCompacts(t *testing.T) {
	clock := vtime.NewManual(epoch)
	mem := wire.NewMem()
	s0, s1 := wal.NewMemStore(), wal.NewMemStore()
	dp0 := newDurableDP(t, clock, mem, "dp-0", s0, 4)
	dp1 := newDurableDP(t, clock, mem, "dp-1", s1, 4)
	dp0.AddPeer("dp-1", "dp-1", "dp-1")
	dp1.AddPeer("dp-0", "dp-0", "dp-0")
	for _, dp := range []*DecisionPoint{dp0, dp1} {
		if err := dp.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(dp.Stop)
	}
	ckptsBefore := dp0.WALStats().Checkpoints // Start's recovery pass takes one

	for i := 0; i < 5; i++ {
		dp0.Engine().RecordDispatch(durTestDispatch(i, clock.Now()))
	}
	dp0.ExchangeNow() // 5 appends since last checkpoint >= 4: round checkpoints
	if got := dp0.WALStats().Checkpoints; got != ckptsBefore+1 {
		t.Fatalf("checkpoints = %d, want %d (round past CheckpointEvery must compact)", got, ckptsBefore+1)
	}
	for i := 5; i < 7; i++ {
		dp0.Engine().RecordDispatch(durTestDispatch(i, clock.Now()))
	}

	dp0.Crash()
	if err := dp0.Restart(); err != nil {
		t.Fatal(err)
	}
	rec := dp0.LastRecovery()
	if !rec.CheckpointRestored || rec.Recovered != 2 {
		t.Fatalf("recovery = %+v, want checkpoint restored plus 2 tail records", rec)
	}
	if got := dp0.Engine().PendingDispatches(); got != 7 {
		t.Fatalf("pending after recovery = %d, want 7", got)
	}
}

// TestDurableTornWriteTruncatesAndBackfills: a torn tail write (the
// classic crash-mid-append) truncates at the damaged record, and the
// restart's vector-filtered snapshot pulls exactly the seq-gap from a
// peer — never a panic, never corrupt state served.
func TestDurableTornWriteTruncatesAndBackfills(t *testing.T) {
	clock := vtime.NewManual(epoch)
	mem := wire.NewMem()
	s0, s1 := wal.NewMemStore(), wal.NewMemStore()
	dp0 := newDurableDP(t, clock, mem, "dp-0", s0, -1) // manual checkpoints only
	dp1 := newDurableDP(t, clock, mem, "dp-1", s1, -1)
	dp0.AddPeer("dp-1", "dp-1", "dp-1")
	dp1.AddPeer("dp-0", "dp-0", "dp-0")
	for _, dp := range []*DecisionPoint{dp0, dp1} {
		if err := dp.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(dp.Stop)
	}
	const n = 5
	for i := 0; i < n; i++ {
		dp0.Engine().RecordDispatch(durTestDispatch(i, clock.Now()))
	}
	dp0.ExchangeNow() // dp-1 now holds all n records

	dp0.Crash()
	// Tear the last append: cut 3 bytes off the log tail, as a crash
	// mid-write would.
	if !s0.Truncate("wal.log", s0.Size("wal.log")-3) {
		t.Fatal("truncate failed")
	}
	if err := dp0.Restart(); err != nil {
		t.Fatal(err)
	}
	rec := dp0.LastRecovery()
	if !rec.Truncated || rec.TruncateReason != wal.ReasonTornPayload {
		t.Fatalf("recovery = %+v, want torn-payload truncation", rec)
	}
	if rec.Recovered != n-1 {
		t.Fatalf("recovered %d records, want %d (all but the torn one)", rec.Recovered, n-1)
	}
	if rec.Backfilled != 1 {
		t.Fatalf("backfilled %d records, want exactly the seq-gap of 1", rec.Backfilled)
	}
	if got := dp0.Engine().PendingDispatches(); got != n {
		t.Fatalf("pending after recovery+backfill = %d, want %d", got, n)
	}
	// The backfilled record re-enters the own log, so numbering continues
	// past it instead of reusing its sequence number.
	dp0.Engine().RecordDispatch(durTestDispatch(99, clock.Now()))
	if hi := dp0.Engine().LocalSeqHighWater(); hi != n+1 {
		t.Fatalf("post-backfill dispatch stamped seq %d, want %d", hi, n+1)
	}
}

// TestDurableBitFlipTruncatesAndBackfills: silent corruption (one bit)
// inside an early record is caught by the checksum; replay stops there
// and the peer backfill restores the entire lost suffix.
func TestDurableBitFlipTruncatesAndBackfills(t *testing.T) {
	clock := vtime.NewManual(epoch)
	mem := wire.NewMem()
	s0, s1 := wal.NewMemStore(), wal.NewMemStore()
	dp0 := newDurableDP(t, clock, mem, "dp-0", s0, -1)
	dp1 := newDurableDP(t, clock, mem, "dp-1", s1, -1)
	dp0.AddPeer("dp-1", "dp-1", "dp-1")
	dp1.AddPeer("dp-0", "dp-0", "dp-0")
	for _, dp := range []*DecisionPoint{dp0, dp1} {
		if err := dp.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(dp.Stop)
	}
	const n = 5
	for i := 0; i < n; i++ {
		dp0.Engine().RecordDispatch(durTestDispatch(i, clock.Now()))
	}
	dp0.ExchangeNow()

	dp0.Crash()
	// Flip one bit in the first record's payload.
	if !s0.FlipBit("wal.log", 10, 3) {
		t.Fatal("flip failed")
	}
	if err := dp0.Restart(); err != nil {
		t.Fatal(err)
	}
	rec := dp0.LastRecovery()
	if !rec.Truncated || rec.TruncateReason != wal.ReasonChecksum {
		t.Fatalf("recovery = %+v, want checksum-mismatch truncation", rec)
	}
	if rec.Recovered != 0 || rec.Backfilled != n {
		t.Fatalf("recovery = %+v, want 0 replayed and %d backfilled", rec, n)
	}
	if got := dp0.Engine().PendingDispatches(); got != n {
		t.Fatalf("pending after recovery+backfill = %d, want %d", got, n)
	}
	dp0.Engine().RecordDispatch(durTestDispatch(99, clock.Now()))
	if hi := dp0.Engine().LocalSeqHighWater(); hi != n+1 {
		t.Fatalf("post-backfill dispatch stamped seq %d, want %d", hi, n+1)
	}
}

// TestTruncatedRecoveryServesAfterStart: a recovery that truncates the
// log owes a resync (the lost tail may hold records of the point's own),
// and a point brought up with Start, not Restart, settles it itself: from
// a peer that answers, or at once with no peer to ask or no exchange to
// feed. With its only peer down it refuses work until a round reaches it.
func TestTruncatedRecoveryServesAfterStart(t *testing.T) {
	for _, tc := range []struct {
		name           string
		strategy       DisseminationStrategy
		peer, peerDown bool
	}{{"peer-answers", UsageOnly, true, false}, {"no-peers", UsageOnly, false, false}, {"no-exchange", NoExchange, true, false}, {"peer-down", UsageOnly, true, true}} {
		t.Run(tc.name, func(t *testing.T) {
			clock := vtime.NewManual(epoch)
			mem := wire.NewMem()
			store := wal.NewMemStore()
			dp := newDurableDP(t, clock, mem, "dp-0", store, -1)
			dp.cfg.Strategy = tc.strategy
			peer := newDurableDP(t, clock, mem, "dp-1", wal.NewMemStore(), -1)
			if tc.peer {
				Connect(dp, peer)
			}
			for _, p := range []*DecisionPoint{peer, dp} {
				if err := p.Start(); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(p.Stop)
			}
			for i := 0; i < 3; i++ {
				dp.Engine().RecordDispatch(durTestDispatch(i, clock.Now()))
			}
			dp.ExchangeNow()
			dp.Crash()
			if tc.peerDown {
				peer.Crash()
			}
			store.Truncate("wal.log", store.Size("wal.log")-3)
			if err := dp.Start(); err != nil || !dp.LastRecovery().Truncated {
				t.Fatalf("start: %v, recovery %+v; want a truncated recovery", err, dp.LastRecovery())
			}
			cli := testWireClient(t, mem, clock, dp)
			if tc.peerDown {
				if _, err := callSchedule(cli, "early"); !errors.Is(err, wire.ErrDraining) {
					t.Fatalf("Schedule with the resync unanswered: %v, want ErrDraining", err)
				}
				if err := peer.Restart(); err != nil {
					t.Fatal(err)
				}
				dp.ExchangeNow()
			}
			if _, err := callSchedule(cli, "after"); err != nil {
				t.Fatalf("Schedule after the truncated recovery: %v, want it served", err)
			}
		})
	}
}

// TestDrainAfterRecovery is the drain/recovery interaction: a point that
// just cold-restarted (replay + backfill) must still be able to retire
// cleanly — its verified flush reconciles the recovered own log against
// peers whose cursors were reset by the crash.
func TestDrainAfterRecovery(t *testing.T) {
	clock := vtime.NewReal()
	mem := wire.NewMem()
	s0, s1 := wal.NewMemStore(), wal.NewMemStore()
	dp0 := newDurableDP(t, clock, mem, "dp-0", s0, -1)
	dp1 := newDurableDP(t, clock, mem, "dp-1", s1, -1)
	dp0.AddPeer("dp-1", "dp-1", "dp-1")
	dp1.AddPeer("dp-0", "dp-0", "dp-0")
	for _, dp := range []*DecisionPoint{dp0, dp1} {
		if err := dp.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(dp.Stop)
	}
	for i := 0; i < 6; i++ {
		dp0.Engine().RecordDispatch(durTestDispatch(i, clock.Now()))
	}
	// Only half the records ever reached the peer before the crash.
	dp0.ExchangeNow()
	for i := 6; i < 9; i++ {
		dp0.Engine().RecordDispatch(durTestDispatch(i, clock.Now()))
	}

	dp0.Crash()
	if err := dp0.Restart(); err != nil {
		t.Fatal(err)
	}
	if rec := dp0.LastRecovery(); rec.Recovered != 9 {
		t.Fatalf("recovery = %+v, want all 9 records replayed", rec)
	}
	// Drain immediately after recovery: the flush must push the records
	// the peer never saw (and re-prove the ones it did) before stopping.
	if err := dp0.Drain(time.Minute); err != nil {
		t.Fatalf("drain after recovery: %v", err)
	}
	if got := dp1.Engine().PendingDispatches(); got != 9 {
		t.Fatalf("peer pending after drain = %d, want 9 (flush covered the recovered log)", got)
	}
}

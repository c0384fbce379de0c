package gruber

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"digruber/internal/grid"
	"digruber/internal/vtime"
)

// newDurableTestEngine builds an engine with two known sites on a
// Manual clock.
func newDurableTestEngine(name string, clock vtime.Clock) *Engine {
	e := NewEngine(name, nil, clock)
	e.UpdateSites([]grid.Status{
		{Name: "site-a", TotalCPUs: 100, FreeCPUs: 100},
		{Name: "site-b", TotalCPUs: 100, FreeCPUs: 100},
	}, clock.Now())
	return e
}

// exportState captures the checkpoint image without persisting it.
func exportState(e *Engine) EngineState {
	var st EngineState
	e.CheckpointState(func(s EngineState) error { st = s; return nil })
	return st
}

func durableDispatch(i int, at time.Time) Dispatch {
	return Dispatch{
		JobID: fmt.Sprintf("job-%03d", i), Site: "site-a", Owner: "atlas",
		CPUs: 1, Runtime: time.Hour, At: at,
	}
}

// TestExportRestoreStateRoundTrip: a checkpoint restored into a fresh
// engine reproduces the version vector, the view, and — decisively —
// the own log's sequence numbering, so the next local dispatch
// continues the pre-crash run instead of restarting from 1.
func TestExportRestoreStateRoundTrip(t *testing.T) {
	clock := vtime.NewManual(time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC))
	e := newDurableTestEngine("dp-0", clock)
	for i := 0; i < 5; i++ {
		e.RecordDispatch(durableDispatch(i, clock.Now()))
	}
	// A relayed origin too, so restore covers both log kinds.
	e.MergeGossip("dp-1", []Dispatch{
		{JobID: "peer-1", Site: "site-b", Owner: "cms", CPUs: 2, Runtime: time.Hour,
			At: clock.Now(), Origin: "dp-1", Seq: 1},
	})
	st := exportState(e)

	r := newDurableTestEngine("dp-0", clock)
	rs := r.RestoreState(st)
	if rs.Logged != 6 || rs.Applied != 6 {
		t.Fatalf("restore stats = %+v", rs)
	}
	if got, want := r.OriginVector(), e.OriginVector(); !reflect.DeepEqual(got, want) {
		t.Fatalf("vector %v, want %v", got, want)
	}
	if got, want := r.PendingDispatches(), e.PendingDispatches(); got != want {
		t.Fatalf("pending %d, want %d", got, want)
	}
	r.RecordDispatch(durableDispatch(99, clock.Now()))
	if hi := r.LocalSeqHighWater(); hi != 6 {
		t.Fatalf("post-restore dispatch stamped seq %d, want 6 (numbering must continue)", hi)
	}
}

// TestRestoreStateKeepsCompactedFloor: a compacted-empty own log is
// pure floor; restoring it must still continue the numbering — this is
// what stops peers from seeing a seq reset after a durable recovery.
func TestRestoreStateKeepsCompactedFloor(t *testing.T) {
	clock := vtime.NewManual(time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC))
	e := newDurableTestEngine("dp-0", clock)
	for i := 0; i < 4; i++ {
		e.RecordDispatch(durableDispatch(i, clock.Now()))
	}
	e.CompactOrigins(map[string]uint64{e.Name(): 4})
	st := exportState(e)
	if len(st.Origins) != 1 || st.Origins[0].Floor != 4 || len(st.Origins[0].Records) != 0 {
		t.Fatalf("exported origins = %+v", st.Origins)
	}

	r := newDurableTestEngine("dp-0", clock)
	r.RestoreState(st)
	r.RecordDispatch(durableDispatch(99, clock.Now()))
	if hi := r.LocalSeqHighWater(); hi != 5 {
		t.Fatalf("dispatch after floor-only restore stamped seq %d, want 5", hi)
	}
	// The compacted records live on in the view via st.View.
	if got, want := r.PendingDispatches(), 5; got != want {
		t.Fatalf("pending %d, want %d", got, want)
	}
}

// TestRestoreRecordReplay: replaying write-ahead records in append
// order rebuilds the same state a live engine holds, and the appender
// hook never fires during replay (no write amplification on recovery).
func TestRestoreRecordReplay(t *testing.T) {
	clock := vtime.NewManual(time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC))
	live := newDurableTestEngine("dp-0", clock)
	type entry struct {
		d      Dispatch
		logged bool
	}
	var wal []entry
	live.SetAppender(func(d Dispatch, logged bool) Ticket {
		wal = append(wal, entry{d, logged})
		return nil
	})
	for i := 0; i < 3; i++ {
		live.RecordDispatch(durableDispatch(i, clock.Now()))
	}
	live.MergeRemote([]Dispatch{
		{JobID: "merge-1", Site: "site-b", Owner: "cms", CPUs: 1, Runtime: time.Hour,
			At: clock.Now(), Origin: "dp-2", Seq: 7},
	})
	live.ImportSnapshot([]Dispatch{
		{JobID: "snap-1", Site: "site-b", Owner: "cms", CPUs: 1, Runtime: time.Hour,
			At: clock.Now(), Origin: "dp-3", Seq: 2},
	})
	if len(wal) != 5 {
		t.Fatalf("appender saw %d records, want 5", len(wal))
	}

	r := newDurableTestEngine("dp-0", clock)
	replays := 0
	r.SetAppender(func(Dispatch, bool) Ticket { replays++; return nil })
	for _, en := range wal {
		r.RestoreRecord(en.d, en.logged)
	}
	if replays != 0 {
		t.Fatalf("appender fired %d times during replay", replays)
	}
	if got, want := r.OriginVector(), live.OriginVector(); !reflect.DeepEqual(got, want) {
		t.Fatalf("vector %v, want %v", got, want)
	}
	if got, want := r.PendingDispatches(), live.PendingDispatches(); got != want {
		t.Fatalf("pending %d, want %d", got, want)
	}
}

// TestExportSnapshotSince: the vector-filtered snapshot ships only
// records above the requester's floor, and always ships unstamped ones.
func TestExportSnapshotSince(t *testing.T) {
	clock := vtime.NewManual(time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC))
	e := newDurableTestEngine("dp-0", clock)
	for i := 0; i < 4; i++ {
		e.RecordDispatch(durableDispatch(i, clock.Now()))
	}
	e.ImportSnapshot([]Dispatch{
		{JobID: "unstamped", Site: "site-b", Owner: "cms", CPUs: 1, Runtime: time.Hour, At: clock.Now()},
	})
	got := e.ExportSnapshotSince(map[string]uint64{"dp-0": 2})
	ids := make(map[string]bool, len(got))
	for _, d := range got {
		ids[d.JobID] = true
	}
	want := map[string]bool{"job-002": true, "job-003": true, "unstamped": true}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("filtered snapshot = %v, want %v", ids, want)
	}
	if full := e.ExportSnapshotSince(nil); len(full) != 5 {
		t.Fatalf("nil vector filtered to %d records, want all 5", len(full))
	}
}

package gruber

import (
	"fmt"
	"testing"
	"time"

	"digruber/internal/vtime"
)

// disp builds a stamped relay record as another origin's engine would
// have emitted it.
func disp(origin string, seq uint64, site string, at time.Time) Dispatch {
	return Dispatch{
		JobID:   fmt.Sprintf("%s-%d", origin, seq),
		Site:    site,
		Owner:   "atlas",
		CPUs:    2,
		Runtime: 30 * time.Minute,
		At:      at,
		Origin:  origin,
		Seq:     seq,
	}
}

func TestRecordDispatchStampsSequence(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(100), epoch)
	for i := 0; i < 3; i++ {
		e.RecordDispatch(Dispatch{JobID: fmt.Sprintf("j-%d", i), Site: "site-000", Owner: "atlas", CPUs: 1, Runtime: time.Hour, At: clock.Now()})
	}
	batch, hi := e.LocalDispatchesAfter(0)
	if hi != 3 || len(batch) != 3 {
		t.Fatalf("LocalDispatchesAfter(0) = %d records, hi %d; want 3, 3", len(batch), hi)
	}
	for i, d := range batch {
		if d.Seq != uint64(i+1) {
			t.Fatalf("record %d has Seq %d; want %d", i, d.Seq, i+1)
		}
		if d.Origin != e.Name() {
			t.Fatalf("record %d has Origin %q; want %q", i, d.Origin, e.Name())
		}
	}
	if vv := e.OriginVector(); vv[e.Name()] != 3 {
		t.Fatalf("OriginVector()[self] = %d; want 3", vv[e.Name()])
	}
}

func TestMergeGossipStoresAndRelays(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(100), epoch)

	recs := []Dispatch{
		disp("dp-a", 1, "site-000", clock.Now()),
		disp("dp-a", 2, "site-000", clock.Now()),
		disp("dp-b", 1, "site-000", clock.Now()),
	}
	st := e.MergeGossip("dp-a", recs)
	if st.Stored != 3 || e.PendingDispatches() != 3 {
		t.Fatalf("MergeGossip = %+v, %d in the view; want 3 stored, 3 applied", st, e.PendingDispatches())
	}
	if st.Relayed != 1 {
		t.Fatalf("Relayed = %d; want 1 (dp-b's record arrived via dp-a)", st.Relayed)
	}
	vv := e.OriginVector()
	if vv["dp-a"] != 2 || vv["dp-b"] != 1 {
		t.Fatalf("OriginVector = %v; want dp-a:2 dp-b:1", vv)
	}

	// Re-delivery over another path is pure redundancy.
	st = e.MergeGossip("dp-b", recs)
	if st.Stored != 0 || st.Duplicates != 3 {
		t.Fatalf("re-merge = %+v; want 0 stored, 3 duplicates", st)
	}

	// The engine can now forward dp-a's records to a third party that
	// lacks them — the transitive relay the full-mesh flood never needed.
	out := e.DispatchesSince(map[string]uint64{"dp-a": 1}, 0)
	if len(out) != 2 {
		t.Fatalf("DispatchesSince = %d records; want 2 (dp-a seq 2, dp-b seq 1)", len(out))
	}
	if out[0].Origin != "dp-a" || out[0].Seq != 2 || out[1].Origin != "dp-b" || out[1].Seq != 1 {
		t.Fatalf("DispatchesSince returned %+v; want dp-a/2 then dp-b/1", out)
	}
}

func TestMergeGossipSkipsOwnEchoesAndUnstamped(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(100), epoch)
	st := e.MergeGossip("dp-a", []Dispatch{
		disp("dp-0", 7, "site-000", clock.Now()),             // own origin echoed back
		{JobID: "legacy", Site: "site-000", At: clock.Now()}, // unstamped
	})
	if st.Stored != 0 {
		t.Fatalf("MergeGossip stored %d; want 0", st.Stored)
	}
	if vv := e.OriginVector(); len(vv) != 0 {
		t.Fatalf("OriginVector = %v; want empty", vv)
	}
}

func TestMergeGossipFastForwardsOverCompactedGap(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(100), epoch)
	e.MergeGossip("dp-a", []Dispatch{disp("dp-a", 1, "site-000", clock.Now())})
	// The sender compacted 2..4 before we saw them; seq 5 arrives.
	st := e.MergeGossip("dp-a", []Dispatch{disp("dp-a", 5, "site-000", clock.Now())})
	if st.Stored != 1 {
		t.Fatalf("MergeGossip = %+v; want 1 stored", st)
	}
	if vv := e.OriginVector(); vv["dp-a"] != 5 {
		t.Fatalf("OriginVector[dp-a] = %d; want 5 (fast-forwarded)", vv["dp-a"])
	}
	// The gap is never re-requested: the advertised vector covers it.
	if out := e.DispatchesSince(map[string]uint64{"dp-a": 4}, 0); len(out) != 1 || out[0].Seq != 5 {
		t.Fatalf("DispatchesSince(4) = %+v; want just seq 5", out)
	}
}

func TestMergeGossipDetectsOriginRestart(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(100), epoch)
	for seq := uint64(1); seq <= 4; seq++ {
		e.MergeGossip("dp-a", []Dispatch{disp("dp-a", seq, "site-000", clock.Now())})
	}
	// dp-a crashes, loses its log, and renumbers from 1 with fresh JobIDs.
	fresh := disp("dp-a", 1, "site-000", clock.Now())
	fresh.JobID = "dp-a-incarnation2-1"
	st := e.MergeGossip("dp-a", []Dispatch{fresh})
	if st.Resets != 1 || st.Stored != 1 {
		t.Fatalf("MergeGossip = %+v; want 1 reset, 1 stored", st)
	}
	if vv := e.OriginVector(); vv["dp-a"] != 1 {
		t.Fatalf("OriginVector[dp-a] = %d; want 1 (new incarnation)", vv["dp-a"])
	}
}

func TestDispatchesSinceHonorsBatchCap(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(100), epoch)
	for seq := uint64(1); seq <= 5; seq++ {
		e.MergeGossip("dp-a", []Dispatch{disp("dp-a", seq, "site-000", clock.Now())})
		e.MergeGossip("dp-b", []Dispatch{disp("dp-b", seq, "site-000", clock.Now())})
	}
	out := e.DispatchesSince(nil, 7)
	if len(out) != 7 {
		t.Fatalf("capped batch = %d records; want 7", len(out))
	}
	// Sorted-origin fill: all of dp-a, then dp-b up to the budget.
	for i, d := range out {
		want := "dp-a"
		if i >= 5 {
			want = "dp-b"
		}
		if d.Origin != want {
			t.Fatalf("record %d from %s; want %s", i, d.Origin, want)
		}
	}
}

func TestCompactOriginsAckAndExpiry(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(100), epoch)
	for i := 0; i < 4; i++ {
		e.RecordDispatch(Dispatch{JobID: fmt.Sprintf("own-%d", i), Site: "site-000", Owner: "atlas", CPUs: 1, Runtime: time.Minute, At: clock.Now()})
	}
	for seq := uint64(1); seq <= 4; seq++ {
		e.MergeGossip("dp-a", []Dispatch{disp("dp-a", seq, "site-000", clock.Now())})
	}

	// Acked compaction applies per origin.
	e.CompactOrigins(map[string]uint64{e.Name(): 2, "dp-a": 3})
	if n := held(e, e.Name()); n != 2 {
		t.Fatalf("own log holds %d records after ack compaction; want 2", n)
	}
	if n := held(e, "dp-a"); n != 1 {
		t.Fatalf("dp-a log holds %d records; want 1", n)
	}
	// The vector keeps its floor even as records drop.
	if vv := e.OriginVector(); vv["dp-a"] != 4 || vv[e.Name()] != 4 {
		t.Fatalf("OriginVector = %v; want both at 4", vv)
	}

	// Expiry compaction drains every log, the engine's own included: an
	// expired record changes no view. The own log's records 3-4 left by
	// expiry above its acknowledged floor of 2, so a drain's flush counts
	// them as delivered to a peer at that floor.
	clock.Advance(45 * time.Minute)
	e.CompactOrigins(nil)
	if n := held(e, "dp-a"); n != 0 {
		t.Fatalf("dp-a log holds %d expired records; want 0", n)
	}
	if n := held(e, e.Name()); n != 0 {
		t.Fatalf("own log holds %d expired records; want 0", n)
	}
	if through := e.LocalExpiredThrough(); through != 4 {
		t.Fatalf("own log expired through %d; want 4", through)
	}
	// A fully-compacted log contributes nothing, however far back the
	// peer's cursor sits — the digest alone fast-forwards it.
	if out := e.DispatchesSince(map[string]uint64{"dp-a": 0, e.Name(): 4}, 0); len(out) != 0 {
		t.Fatalf("DispatchesSince over a fully-compacted log = %+v; want empty", out)
	}
}

func TestDropDynamicStateResetsLogs(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(100), epoch)
	e.RecordDispatch(Dispatch{JobID: "j-0", Site: "site-000", Owner: "atlas", CPUs: 1, Runtime: time.Hour, At: clock.Now()})
	e.MergeGossip("dp-a", []Dispatch{disp("dp-a", 3, "site-000", clock.Now())})
	e.DropDynamicState()
	if vv := e.OriginVector(); len(vv) != 0 {
		t.Fatalf("OriginVector after crash = %v; want empty", vv)
	}
	if hi := e.LocalSeqHighWater(); hi != 0 {
		t.Fatalf("LocalSeqHighWater after crash = %d; want 0", hi)
	}
	// Renumbering restarts from 1.
	e.RecordDispatch(Dispatch{JobID: "j-1", Site: "site-000", Owner: "atlas", CPUs: 1, Runtime: time.Hour, At: clock.Now()})
	if batch, hi := e.LocalDispatchesAfter(0); hi != 1 || len(batch) != 1 || batch[0].Seq != 1 {
		t.Fatalf("after restart: batch %+v hi %d; want one record with Seq 1", batch, hi)
	}
}

// held counts the records e holds in origin's log: what a peer with an
// empty version vector would be sent of it.
func held(e *Engine, origin string) int {
	n := 0
	for _, d := range e.DispatchesSince(nil, 0) {
		if d.Origin == origin {
			n++
		}
	}
	return n
}

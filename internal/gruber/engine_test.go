package gruber

import (
	"fmt"
	"testing"
	"time"

	"digruber/internal/grid"
	"digruber/internal/usla"
	"digruber/internal/vtime"
)

var epoch = time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)

func statuses(free ...int) []grid.Status {
	out := make([]grid.Status, len(free))
	for i, f := range free {
		out[i] = grid.Status{
			Name:        fmt.Sprintf("site-%03d", i),
			TotalCPUs:   100,
			FreeCPUs:    f,
			UsageByPath: map[string]int{},
		}
	}
	return out
}

func newEngine(clock vtime.Clock, policyText string) *Engine {
	ps := usla.NewPolicySet()
	if policyText != "" {
		entries, err := usla.ParseTextString(policyText)
		if err != nil {
			panic(err)
		}
		ps.AddAll(entries)
	}
	return NewEngine("dp-0", ps, clock)
}

func TestEngineBaselineView(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(100, 40, 0), clock.Now())
	loads := e.SiteLoads(usla.MustParsePath("atlas"), 1)
	if len(loads) != 3 {
		t.Fatalf("loads = %d", len(loads))
	}
	if loads[0].EstFreeCPUs != 100 || loads[1].EstFreeCPUs != 40 || loads[2].EstFreeCPUs != 0 {
		t.Fatalf("est free = %+v", loads)
	}
}

func TestDispatchReducesEstimate(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(50), clock.Now())
	e.RecordDispatch(Dispatch{JobID: "j1", Site: "site-000", Owner: "atlas", CPUs: 10, Runtime: time.Hour, At: clock.Now()})
	if got := e.EstFreeCPUs("site-000"); got != 40 {
		t.Fatalf("est free = %d, want 40", got)
	}
}

func TestDispatchExpiresAfterRuntime(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(50), clock.Now())
	e.RecordDispatch(Dispatch{JobID: "j1", Site: "site-000", Owner: "atlas", CPUs: 10, Runtime: 30 * time.Minute, At: clock.Now()})
	clock.Advance(29 * time.Minute)
	if got := e.EstFreeCPUs("site-000"); got != 40 {
		t.Fatalf("pre-expiry est = %d, want 40", got)
	}
	clock.Advance(2 * time.Minute)
	if got := e.EstFreeCPUs("site-000"); got != 50 {
		t.Fatalf("post-expiry est = %d, want 50", got)
	}
	if e.Stats().ExpiredPruned == 0 {
		t.Fatal("expiry not counted")
	}
}

func TestEstimateClamped(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(5), clock.Now())
	for i := 0; i < 3; i++ {
		e.RecordDispatch(Dispatch{JobID: fmt.Sprintf("j%d", i), Site: "site-000", Owner: "atlas", CPUs: 4, Runtime: time.Hour, At: clock.Now()})
	}
	if got := e.EstFreeCPUs("site-000"); got != 0 {
		t.Fatalf("over-dispatch est = %d, want clamp to 0", got)
	}
}

func TestMergeRemoteAndDedup(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(50), clock.Now())
	d := Dispatch{JobID: "r1", Site: "site-000", Owner: "cms", CPUs: 5, Runtime: time.Hour, At: clock.Now(), Origin: "dp-1"}
	if n := e.MergeRemote([]Dispatch{d}); n != 1 {
		t.Fatalf("merged %d, want 1", n)
	}
	if got := e.EstFreeCPUs("site-000"); got != 45 {
		t.Fatalf("est = %d, want 45", got)
	}
	// Re-flooding the same record changes nothing.
	if n := e.MergeRemote([]Dispatch{d}); n != 0 {
		t.Fatalf("duplicate merged %d, want 0", n)
	}
	if got := e.EstFreeCPUs("site-000"); got != 45 {
		t.Fatalf("est after dup = %d, want 45", got)
	}
	if e.Stats().DuplicateIgnored == 0 {
		t.Fatal("dedup not counted")
	}
}

func TestMergeRemoteIgnoresOwnEcho(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(50), clock.Now())
	d := Dispatch{JobID: "x", Site: "site-000", Owner: "cms", CPUs: 5, Runtime: time.Hour, At: clock.Now(), Origin: "dp-0"}
	if n := e.MergeRemote([]Dispatch{d}); n != 0 {
		t.Fatal("engine merged its own echoed dispatch")
	}
}

func TestMergeRemoteSkipsExpired(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(50), clock.Now())
	old := Dispatch{JobID: "old", Site: "site-000", Owner: "cms", CPUs: 5, Runtime: time.Minute, At: clock.Now().Add(-time.Hour), Origin: "dp-1"}
	e.MergeRemote([]Dispatch{old})
	if got := e.EstFreeCPUs("site-000"); got != 50 {
		t.Fatalf("expired remote dispatch applied: est = %d", got)
	}
}

func TestLocalDispatchesAfter(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(100), clock.Now())
	for i := 0; i < 5; i++ {
		clock.Advance(time.Minute)
		e.RecordDispatch(Dispatch{JobID: fmt.Sprintf("j%d", i), Site: "site-000", Owner: "atlas", CPUs: 1, Runtime: time.Hour, At: clock.Now()})
	}
	all, hi := e.LocalDispatchesAfter(0)
	if len(all) != 5 || hi != 5 {
		t.Fatalf("after 0: %d records hi=%d, want 5 records hi=5", len(all), hi)
	}
	got, hi2 := e.LocalDispatchesAfter(3)
	if len(got) != 2 || got[0].JobID != "j3" || hi2 != 5 {
		t.Fatalf("after 3: %d records first=%v hi=%d, want 2/j3/5", len(got), got, hi2)
	}
	if rest, _ := e.LocalDispatchesAfter(99); len(rest) != 0 {
		t.Fatalf("cursor past end returned %d records", len(rest))
	}

	e.CompactOrigins(map[string]uint64{e.Name(): 3})
	if rest, hi3 := e.LocalDispatchesAfter(0); len(rest) != 2 || hi3 != 5 {
		t.Fatalf("after compact: %d records hi=%d, want 2 records hi=5", len(rest), hi3)
	}
	// Sequence numbers survive compaction: cursor 4 still means "j4 only".
	if rest, _ := e.LocalDispatchesAfter(4); len(rest) != 1 || rest[0].JobID != "j4" {
		t.Fatalf("after compact, cursor 4: %v", rest)
	}
	e.CompactOrigins(map[string]uint64{e.Name(): 2}) // stale cursor: must be a no-op
	if rest, _ := e.LocalDispatchesAfter(0); len(rest) != 2 {
		t.Fatalf("stale compact changed log: %d records", len(rest))
	}
}

func TestUpdateSitesRebaselines(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(50), clock.Now())
	e.RecordDispatch(Dispatch{JobID: "j1", Site: "site-000", Owner: "atlas", CPUs: 10, Runtime: time.Hour, At: clock.Now()})
	clock.Advance(time.Minute)
	// Fresh snapshot at t+1m already reflects j1's occupancy (40 free);
	// the engine must not double-count j1.
	e.UpdateSites(statuses(40), clock.Now())
	if got := e.EstFreeCPUs("site-000"); got != 40 {
		t.Fatalf("rebaselined est = %d, want 40", got)
	}
	// A dispatch after the snapshot still applies on top.
	clock.Advance(time.Second)
	e.RecordDispatch(Dispatch{JobID: "j2", Site: "site-000", Owner: "atlas", CPUs: 7, Runtime: time.Hour, At: clock.Now()})
	if got := e.EstFreeCPUs("site-000"); got != 33 {
		t.Fatalf("est = %d, want 33", got)
	}
}

func TestSiteLoadsAppliesUSLA(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "* atlas cpu 20+\n* atlas cpu 10")
	e.UpdateSites(statuses(100), clock.Now())
	loads := e.SiteLoads(usla.MustParsePath("atlas"), 1)
	if loads[0].Headroom != 20 {
		t.Fatalf("headroom = %v, want 20 (20%% of 100)", loads[0].Headroom)
	}
	if loads[0].TargetGap != 10 {
		t.Fatalf("target gap = %v, want 10", loads[0].TargetGap)
	}
	// Consume 15 CPUs: headroom 5, gap -5.
	e.RecordDispatch(Dispatch{JobID: "j", Site: "site-000", Owner: "atlas", CPUs: 15, Runtime: time.Hour, At: clock.Now()})
	loads = e.SiteLoads(usla.MustParsePath("atlas"), 1)
	if loads[0].Headroom != 5 || loads[0].TargetGap != -5 {
		t.Fatalf("after dispatch: headroom %v gap %v", loads[0].Headroom, loads[0].TargetGap)
	}
}

func TestQueriesCounted(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(10), clock.Now())
	e.SiteLoads(usla.MustParsePath("atlas"), 1)
	e.SiteLoads(usla.MustParsePath("cms"), 1)
	if e.Stats().Queries != 2 {
		t.Fatalf("queries = %d", e.Stats().Queries)
	}
}

func TestEngineConcurrency(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "* atlas cpu 50+")
	e.UpdateSites(statuses(100, 100, 100, 100), clock.Now())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			e.RecordDispatch(Dispatch{JobID: fmt.Sprintf("a%d", i), Site: "site-001", Owner: "atlas", CPUs: 1, Runtime: time.Hour, At: clock.Now()})
		}
	}()
	for i := 0; i < 200; i++ {
		e.SiteLoads(usla.MustParsePath("atlas"), 1)
		e.MergeRemote([]Dispatch{{JobID: fmt.Sprintf("b%d", i), Site: "site-002", Owner: "cms", CPUs: 1, Runtime: time.Hour, At: clock.Now(), Origin: "dp-9"}})
	}
	<-done
	if got := e.EstFreeCPUs("site-001"); got != 0 {
		t.Fatalf("site-001 est = %d, want 0 after 200 dispatches", got)
	}
}

// sweepCountingClock counts Now calls. RecordDispatch reads the clock
// only when markSeenLocked sweeps the dedup set, so on an engine that
// does nothing else the count is the number of sweeps.
type sweepCountingClock struct {
	vtime.Clock
	reads int
}

func (c *sweepCountingClock) Now() time.Time {
	c.reads++
	return c.Clock.Now()
}

// TestDedupSweepIsAmortised: once the dedup set holds more unexpired
// JobIDs than the sweep floor, a sweep frees nothing — so it must not
// repeat on every insert (each one visits the whole set: 30 000 inserts
// past the floor took ~50 s). The next sweep waits for the set to double.
func TestDedupSweepIsAmortised(t *testing.T) {
	clock := &sweepCountingClock{Clock: vtime.NewManual(epoch)}
	e := newEngine(clock, "")
	e.UpdateSites(statuses(100), epoch)
	for i := 0; i < seenSweepFloor+30000; i++ {
		e.RecordDispatch(Dispatch{JobID: fmt.Sprintf("j%d", i), Site: "site-000", Owner: "atlas", CPUs: 1, Runtime: time.Hour, At: epoch})
		if clock.reads > 1 {
			t.Fatalf("dedup set swept %d times in %d inserts; one sweep at the floor, the next only at twice its size", clock.reads, i+1)
		}
	}
	if clock.reads != 1 {
		t.Fatalf("dedup set swept %d times, want exactly one sweep on crossing the floor", clock.reads)
	}
	// Expired JobIDs do still leave: once the set has doubled the sweep
	// runs again, and a JobID it freed can be learned anew.
	clock.Clock.(*vtime.Manual).Advance(2 * time.Hour)
	for i := seenSweepFloor + 30000; len(e.seen) > seenSweepFloor; i++ {
		if i > 3*seenSweepFloor {
			t.Fatalf("dedup set still holds %d JobIDs after %d inserts; expired ones were never swept", len(e.seen), i)
		}
		e.RecordDispatch(Dispatch{JobID: fmt.Sprintf("j%d", i), Site: "site-000", Owner: "atlas", CPUs: 1, Runtime: time.Hour, At: clock.Clock.Now()})
	}
	if dup := e.Stats().DuplicateIgnored; dup != 0 {
		t.Fatalf("unexpected duplicates: %d", dup)
	}
	e.RecordDispatch(Dispatch{JobID: "j0", Site: "site-000", Owner: "atlas", CPUs: 1, Runtime: time.Hour, At: clock.Clock.Now()})
	if dup := e.Stats().DuplicateIgnored; dup != 0 {
		t.Fatalf("swept JobID j0 still deduplicated (%d duplicates)", dup)
	}
}

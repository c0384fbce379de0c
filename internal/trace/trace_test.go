package trace

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"digruber/internal/vtime"
)

var epoch = time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)

func newTestTracer(t *testing.T, actor string, seed int64) (*Tracer, *vtime.Manual, *Collector) {
	t.Helper()
	clock := vtime.NewManual(epoch)
	col := NewCollector(0)
	tr := New(Config{Actor: actor, Seed: seed, Clock: clock, Collector: col})
	if tr == nil {
		t.Fatal("New returned nil for a complete config")
	}
	return tr, clock, col
}

func TestNewRejectsIncompleteConfig(t *testing.T) {
	clock := vtime.NewManual(epoch)
	if New(Config{Clock: clock}) != nil {
		t.Error("New without collector should disable tracing")
	}
	if New(Config{Collector: NewCollector(0)}) != nil {
		t.Error("New without clock should disable tracing")
	}
}

func TestNilTracerAndSpanAreInert(t *testing.T) {
	var tr *Tracer
	root := tr.StartTrace(PhaseSchedule)
	if root != nil {
		t.Fatal("nil tracer produced a span")
	}
	if ctx := root.Context(); ctx.Valid() {
		t.Errorf("nil span context should be invalid, got %+v", ctx)
	}
	// Every method must be callable on the nils.
	root.SetNote("ignored")
	root.End()
	root.EndAt(epoch)
	tr.StartSpan(root.Context(), PhaseQuery).End()
	tr.RecordSpan(root.Context(), PhaseQueue, epoch, epoch.Add(time.Second))
}

func TestDisabledPathDoesNotAllocate(t *testing.T) {
	var tr *Tracer
	ctx := SpanContext{}
	allocs := testing.AllocsPerRun(1000, func() {
		s := tr.StartTrace(PhaseSchedule)
		s.SetNote("job")
		c := tr.StartSpan(ctx, PhaseQuery)
		c.End()
		tr.RecordSpan(ctx, PhaseQueue, epoch, epoch)
		s.End()
	})
	if allocs != 0 {
		t.Errorf("disabled tracing allocated %.1f times per op, want 0", allocs)
	}
}

func TestUntracedParentStaysUntraced(t *testing.T) {
	tr, _, col := newTestTracer(t, "dp-0", 1)
	if s := tr.StartSpan(SpanContext{}, PhaseQuery); s != nil {
		t.Error("span started under an untraced parent")
	}
	tr.RecordSpan(SpanContext{}, PhaseQueue, epoch, epoch.Add(time.Second))
	if col.Len() != 0 {
		t.Errorf("untraced work left %d records", col.Len())
	}
}

func TestSpanRecordsVirtualTime(t *testing.T) {
	tr, clock, col := newTestTracer(t, "dp-0", 1)
	root := tr.StartTrace(PhaseSchedule)
	root.SetNote("job-1")
	clock.Advance(2 * time.Second)
	child := tr.StartSpan(root.Context(), PhaseQuery)
	clock.Advance(3 * time.Second)
	child.End()
	clock.Advance(time.Second)
	root.End()

	recs := col.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	q, r := recs[0], recs[1]
	if q.Name != PhaseQuery || r.Name != PhaseSchedule {
		t.Fatalf("completion order wrong: %q then %q", q.Name, r.Name)
	}
	if q.Trace != r.Trace {
		t.Error("child lost its trace ID")
	}
	if q.Parent != r.Span {
		t.Errorf("child parent=%d, want root span %d", q.Parent, r.Span)
	}
	if !q.Start.Equal(epoch.Add(2*time.Second)) || q.Duration != 3*time.Second {
		t.Errorf("query span [%v +%v], want [epoch+2s +3s]", q.Start, q.Duration)
	}
	if !r.Start.Equal(epoch) || r.Duration != 6*time.Second {
		t.Errorf("root span [%v +%v], want [epoch +6s]", r.Start, r.Duration)
	}
	if r.Note != "job-1" || r.Actor != "dp-0" {
		t.Errorf("root note/actor = %q/%q", r.Note, r.Actor)
	}
	if got := q.End(); !got.Equal(epoch.Add(5 * time.Second)) {
		t.Errorf("Record.End = %v, want epoch+5s", got)
	}
}

func TestEndBeforeStartClampsToZero(t *testing.T) {
	tr, clock, col := newTestTracer(t, "dp-0", 1)
	clock.Advance(time.Minute)
	s := tr.StartTrace(PhaseSchedule)
	s.EndAt(epoch) // earlier than start
	tr.RecordSpan(s.Context(), PhaseQueue, epoch.Add(time.Minute), epoch)
	for _, r := range col.Records() {
		if r.Duration != 0 {
			t.Errorf("%s duration %v, want clamped 0", r.Name, r.Duration)
		}
	}
}

func TestIDsAreDeterministicPerSeedAndActor(t *testing.T) {
	draw := func(actor string, seed int64) []uint64 {
		tr, _, _ := newTestTracer(t, actor, seed)
		var ids []uint64
		for i := 0; i < 8; i++ {
			root := tr.StartTrace(PhaseSchedule)
			ids = append(ids, root.Context().Trace, root.Context().Span)
		}
		return ids
	}
	a, b := draw("dp-0", 42), draw("dp-0", 42)
	if !reflect.DeepEqual(a, b) {
		t.Error("same actor+seed produced different ID sequences")
	}
	if reflect.DeepEqual(a, draw("dp-1", 42)) {
		t.Error("different actors share an ID sequence")
	}
	if reflect.DeepEqual(a, draw("dp-0", 43)) {
		t.Error("different seeds share an ID sequence")
	}
	for _, id := range a {
		if id == 0 {
			t.Fatal("drew a zero ID")
		}
	}
}

func TestCollectorBoundDropsAndCounts(t *testing.T) {
	clock := vtime.NewManual(epoch)
	col := NewCollector(3)
	tr := New(Config{Actor: "dp-0", Seed: 1, Clock: clock, Collector: col})
	for i := 0; i < 5; i++ {
		tr.StartTrace(PhaseSchedule).End()
	}
	if col.Len() != 3 {
		t.Errorf("collector holds %d records, want bound 3", col.Len())
	}
	if col.Dropped() != 2 {
		t.Errorf("dropped=%d, want 2", col.Dropped())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	tr, clock, col := newTestTracer(t, "dp-0", 7)
	root := tr.StartTrace(PhaseSchedule)
	root.SetNote("job-9")
	clock.Advance(1500 * time.Millisecond)
	tr.StartSpan(root.Context(), PhaseQuery).End()
	root.End()

	var buf bytes.Buffer
	if err := col.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := col.Records()
	if len(got) != len(want) {
		t.Fatalf("round trip returned %d records, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if !g.Start.Equal(w.Start) {
			t.Errorf("record %d start %v != %v", i, g.Start, w.Start)
		}
		g.Start, w.Start = time.Time{}, time.Time{}
		if g != w {
			t.Errorf("record %d differs:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(bytes.NewBufferString("{\"trace\":1}\nnot json\n")); err == nil {
		t.Error("malformed line accepted")
	}
	recs, err := ReadJSONL(bytes.NewBufferString("\n\n"))
	if err != nil || len(recs) != 0 {
		t.Errorf("blank input: recs=%v err=%v", recs, err)
	}
}

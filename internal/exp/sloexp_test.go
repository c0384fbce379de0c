package exp

import (
	"bytes"
	"testing"

	"digruber/internal/digruber"
	"digruber/internal/slo"
	"digruber/internal/trace"
)

// TestSLOAlertFiresBeforeGoodputCollapse: the headline promise of the
// burn-rate alert — it fires while the VO is merely missing latency,
// strictly before any goodput floor is breached — and the controller
// scales up on that signal.
func TestSLOAlertFiresBeforeGoodputCollapse(t *testing.T) {
	out, _, err := runSLOScenario(trace.NewCollector(0))
	if err != nil {
		t.Fatal(err)
	}
	if out.FirstFiringStep < 0 {
		t.Fatal("no burn-rate alert ever fired")
	}
	if out.FirstGoodputBreachStep < 0 {
		t.Fatal("the flash crowd never breached a goodput floor; the script is too gentle to prove ordering")
	}
	if out.FirstFiringStep >= out.FirstGoodputBreachStep {
		t.Fatalf("alert fired at step %d, goodput collapsed at step %d: the alert must lead",
			out.FirstFiringStep, out.FirstGoodputBreachStep)
	}
	if !out.ScaleUpWhileFiring {
		t.Fatal("no scale-up landed while an alert was firing: the slo_burn signal never drove the controller")
	}
	if !out.AlertsOnStatus {
		t.Fatal("no StatusReply carried the alert summary while firing")
	}
	if out.PeakFleet < 2 {
		t.Fatalf("peak fleet %d: the SLO signal never grew the fleet", out.PeakFleet)
	}
	if out.FinalFleet != 1 {
		t.Fatalf("final fleet %d, want 1: resolved alerts should let the night fleet drain back", out.FinalFleet)
	}

	// The state machine walked a full cycle at least twice (ramp and
	// crowd): pending, firing, and a resolution each happened.
	var pend, fire, res int
	for _, tr := range out.Transitions {
		switch {
		case tr.To == slo.StatePending:
			pend++
		case tr.To == slo.StateFiring:
			fire++
		case tr.To == slo.StateInactive && tr.From == slo.StateFiring:
			res++
		}
	}
	if pend < 2 || fire < 2 || res < 2 {
		t.Fatalf("transition mix pending=%d firing=%d resolved=%d, want >=2 of each (ramp + crowd)",
			pend, fire, res)
	}

	// Scale-ups happen while firing; nothing scales up without the signal.
	for _, s := range out.Steps {
		if s.Action == digruber.ActionScaleUp && s.Firing == 0 {
			t.Fatalf("step %d scaled up with no firing alert: pressure leaked in from another signal", s.Step)
		}
	}
}

// TestSLOExemplarsResolveToSpanTrees: every valid exemplar in the
// per-VO latency histograms carries a trace ID that resolves, in the
// run's collector, to a complete span tree rooted at the client's
// schedule phase — the p99-to-span-tree drill the SLO plane promises.
func TestSLOExemplarsResolveToSpanTrees(t *testing.T) {
	col := trace.NewCollector(0)
	_, reg, err := runSLOScenario(col)
	if err != nil {
		t.Fatal(err)
	}
	roots := map[uint64]*trace.Node{}
	for _, tr := range trace.BuildTrees(col.Records()) {
		roots[tr.Root.Trace] = tr.Root
	}
	checked := 0
	for _, name := range []string{"vo/atlas/latency_s", "vo/cms/latency_s"} {
		for i, ex := range reg.Exemplars(name) {
			if !ex.Valid() {
				continue
			}
			root, ok := roots[ex.Trace]
			if !ok {
				t.Fatalf("%s bucket %d exemplar trace %d resolves to no span tree", name, i, ex.Trace)
			}
			if root.Name != trace.PhaseSchedule {
				t.Fatalf("%s bucket %d exemplar trace %d roots at %q, want %q",
					name, i, ex.Trace, root.Name, trace.PhaseSchedule)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no valid exemplars to check")
	}
	// The trace plane dropped nothing: the resolution above was against
	// the complete record, not a survivor sample.
	if v, ok := reg.Latest("trace/dropped"); !ok || v.V != 0 {
		t.Fatalf("trace/dropped = %v (ok=%v), want sampled 0", v, ok)
	}
}

// TestSLOReplaysByteIdentical: the run is a pure function of the
// script — two runs export byte-identical metrics JSONL *and*
// byte-identical alert-transition JSONL.
func TestSLOReplaysByteIdentical(t *testing.T) {
	var ma, mb, aa, ab bytes.Buffer
	outA, regA, err := runSLOScenario(trace.NewCollector(0))
	if err != nil {
		t.Fatal(err)
	}
	outB, regB, err := runSLOScenario(trace.NewCollector(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := regA.WriteJSONL(&ma); err != nil {
		t.Fatal(err)
	}
	if err := regB.WriteJSONL(&mb); err != nil {
		t.Fatal(err)
	}
	if ma.Len() == 0 {
		t.Fatal("empty metrics JSONL export")
	}
	if !bytes.Equal(ma.Bytes(), mb.Bytes()) {
		t.Fatal("identical slo runs produced different metrics JSONL")
	}
	if err := slo.WriteTransitionsJSONL(&aa, outA.Transitions); err != nil {
		t.Fatal(err)
	}
	if err := slo.WriteTransitionsJSONL(&ab, outB.Transitions); err != nil {
		t.Fatal(err)
	}
	if aa.Len() == 0 {
		t.Fatal("empty transition JSONL export")
	}
	if !bytes.Equal(aa.Bytes(), ab.Bytes()) {
		t.Fatal("identical slo runs produced different alert-transition JSONL")
	}
}

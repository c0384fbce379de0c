package exp

import (
	"bytes"
	"testing"

	"digruber/internal/digruber"
	"digruber/internal/grubsim"
)

// TestElasticScenarioTrajectory is the elastic controller's end-to-end
// acceptance: under the scripted diurnal + flash-crowd load the fleet
// grows from one member to the cap, drains back to one at night, and no
// request offered during a retirement step is lost.
func TestElasticScenarioTrajectory(t *testing.T) {
	out, reg, err := runElasticScenario()
	if err != nil {
		t.Fatal(err)
	}
	if out.PeakFleet != 4 {
		t.Fatalf("peak fleet = %d, want 4 (flash crowd at the cap)", out.PeakFleet)
	}
	if out.FinalFleet != 1 {
		t.Fatalf("final fleet = %d, want drained back to 1", out.FinalFleet)
	}
	if out.Deploys != 3 || out.Retires != 3 {
		t.Fatalf("deploys/retires = %d/%d, want 3/3", out.Deploys, out.Retires)
	}
	if out.LostDuringRetirement != 0 {
		t.Fatalf("%d requests lost during retirement, want 0", out.LostDuringRetirement)
	}
	if out.Handled != out.Offered {
		t.Fatalf("handled %d of %d offered; the unsaturated fleet must handle everything", out.Handled, out.Offered)
	}

	// The fleet-size curve is stepwise: every change is ±1 and every
	// scale-down step saw a retirement action.
	prev := 1
	for _, s := range out.Steps {
		d := s.Fleet - prev
		if d < -1 || d > 1 {
			t.Fatalf("step %d: fleet jumped %d -> %d", s.Step, prev, s.Fleet)
		}
		if d == 1 && s.Action != digruber.ActionScaleUp {
			t.Fatalf("step %d: fleet grew without a scale-up action (%q)", s.Step, s.Action)
		}
		if d == -1 && s.Action != digruber.ActionScaleDown {
			t.Fatalf("step %d: fleet shrank without a scale-down action (%q)", s.Step, s.Action)
		}
		prev = s.Fleet
	}

	// The metrics plane recorded the loop's actions.
	if got := lastValue(reg.Points("fleet/scale_ups")); got != 3 {
		t.Fatalf("fleet/scale_ups = %v, want 3", got)
	}
	if got := lastValue(reg.Points("fleet/scale_downs")); got != 3 {
		t.Fatalf("fleet/scale_downs = %v, want 3", got)
	}
	if got := lastValue(reg.Points("fleet/drain_aborts")); got != 0 {
		t.Fatalf("fleet/drain_aborts = %v, want 0", got)
	}
}

// TestElasticReplaysByteIdentical: the whole elastic run — controller
// actions, drains, every sampled series — is a pure function of the
// script: two runs export byte-identical metrics JSONL.
func TestElasticReplaysByteIdentical(t *testing.T) {
	var a, b bytes.Buffer
	outA, regA, err := runElasticScenario()
	if err != nil {
		t.Fatal(err)
	}
	if err := regA.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	outB, regB, err := runElasticScenario()
	if err != nil {
		t.Fatal(err)
	}
	if err := regB.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 {
		t.Fatal("empty JSONL export")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical elastic runs produced different metrics JSONL")
	}
	if len(outA.Trace) != len(outB.Trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(outA.Trace), len(outB.Trace))
	}
	for i := range outA.Trace {
		if outA.Trace[i] != outB.Trace[i] {
			t.Fatalf("trace diverges at %d: %+v vs %+v", i, outA.Trace[i], outB.Trace[i])
		}
	}
}

// TestElasticSimCrossCheck replays the recorded arrival trace through
// GRUB-SIM's add-only dynamic provisioner, calibrated to the same
// per-member capacity: the static answer must land on the same peak
// fleet the online controller reached.
func TestElasticSimCrossCheck(t *testing.T) {
	out, _, err := runElasticScenario()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := grubsim.RunTrace(elasticSimParams(), out.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if sim.FinalDPs != out.PeakFleet {
		t.Fatalf("GRUB-SIM static answer %d DPs, online peak %d — expected agreement at the cap",
			sim.FinalDPs, out.PeakFleet)
	}
}

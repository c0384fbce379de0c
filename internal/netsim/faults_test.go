package netsim

import (
	"reflect"
	"testing"
	"time"
)

var faultEpoch = time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)

func at(d time.Duration) time.Time { return faultEpoch.Add(d) }

func TestCutLinkWindow(t *testing.T) {
	f := NewFaultPlane()
	f.CutLink("a", "b", at(10*time.Second), at(20*time.Second))
	cases := []struct {
		now  time.Duration
		want bool
	}{
		{9 * time.Second, false},
		{10 * time.Second, true}, // inclusive start
		{19 * time.Second, true},
		{20 * time.Second, false}, // exclusive end: healed
	}
	for _, c := range cases {
		if got := f.Severed("a", "b", at(c.now)); got != c.want {
			t.Errorf("Severed(a,b) at %s = %v, want %v", c.now, got, c.want)
		}
		// Symmetric: direction doesn't matter.
		if got := f.Severed("b", "a", at(c.now)); got != c.want {
			t.Errorf("Severed(b,a) at %s = %v, want %v", c.now, got, c.want)
		}
	}
	if f.Severed("a", "c", at(15*time.Second)) {
		t.Error("unrelated pair severed by a link cut")
	}
}

func TestPartitionSplitsAndHeals(t *testing.T) {
	f := NewFaultPlane()
	f.Partition([]string{"a", "b"}, at(0), at(time.Minute))
	if !f.Severed("a", "c", at(30*time.Second)) {
		t.Error("cross-partition message not severed")
	}
	if f.Severed("a", "b", at(30*time.Second)) {
		t.Error("intra-partition message severed")
	}
	if f.Severed("c", "d", at(30*time.Second)) {
		t.Error("other-side intra-partition message severed")
	}
	if f.Severed("a", "c", at(2*time.Minute)) {
		t.Error("partition did not heal")
	}
}

func TestCrashNodeSeversAllTraffic(t *testing.T) {
	f := NewFaultPlane()
	f.CrashNode("dp-0", at(time.Minute), at(2*time.Minute))
	if !f.Down("dp-0", at(90*time.Second)) {
		t.Error("crashed node not Down inside the window")
	}
	if f.Down("dp-0", at(3*time.Minute)) {
		t.Error("node still Down after the window")
	}
	if !f.Severed("client-7", "dp-0", at(90*time.Second)) {
		t.Error("message to crashed node not severed")
	}
	if !f.Severed("dp-0", "client-7", at(90*time.Second)) {
		t.Error("message from crashed node not severed")
	}
	if f.Severed("client-7", "dp-1", at(90*time.Second)) {
		t.Error("bystander pair severed by a node crash")
	}
}

// TestRandomCrashesReplay is the fault plane's determinism contract: the
// same (seed, name, arguments) must yield the same schedule bit for bit,
// and a different seed must yield a different one.
func TestRandomCrashesReplay(t *testing.T) {
	nodes := []string{"dp-node-0", "dp-node-1", "dp-node-2", "dp-node-3", "dp-node-4",
		"dp-node-5", "dp-node-6", "dp-node-7", "dp-node-8", "dp-node-9"}
	gen := func(seed int64) []Crash {
		return RandomCrashes(seed, "test", nodes, 3,
			10*time.Minute, 20*time.Minute, 5*time.Minute, 10*time.Minute)
	}
	a, b := gen(42), gen(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different schedules:\n%v\n%v", a, b)
	}
	if len(a) != 3 {
		t.Fatalf("schedule has %d crashes, want 3", len(a))
	}
	victims := map[string]bool{}
	for _, c := range a {
		victims[c.Node] = true
		if c.From < 10*time.Minute || c.From >= 20*time.Minute {
			t.Errorf("crash start %s outside [10m, 20m)", c.From)
		}
		if down := c.Until - c.From; down < 5*time.Minute || down >= 10*time.Minute {
			t.Errorf("downtime %s outside [5m, 10m)", down)
		}
	}
	if len(victims) != 3 {
		t.Fatalf("victims not distinct: %v", a)
	}
	if reflect.DeepEqual(gen(42), gen(43)) {
		t.Error("different seeds produced identical schedules")
	}
}

func TestApplySchedule(t *testing.T) {
	f := NewFaultPlane()
	f.Apply(faultEpoch, []Crash{{Node: "dp-node-1", From: time.Minute, Until: 2 * time.Minute}})
	if !f.Down("dp-node-1", at(90*time.Second)) {
		t.Error("applied schedule did not crash the node")
	}
}

func TestNetworkLostMsgConsultsFaults(t *testing.T) {
	n := New(1, Profile{})
	if n.LostMsg("a", "b", at(0)) {
		t.Error("healthy loopback lost a message")
	}
	f := NewFaultPlane()
	f.CrashNode("b", at(0), at(time.Hour))
	n.SetFaults(f)
	if !n.LostMsg("a", "b", at(time.Minute)) {
		t.Error("message to crashed node survived")
	}
	if n.LostMsg("a", "c", at(time.Minute)) {
		t.Error("bystander message lost")
	}
	n.SetFaults(nil)
	if n.LostMsg("a", "b", at(time.Minute)) {
		t.Error("detached fault plane still dropping")
	}
}

package digruber

import (
	"testing"
	"time"

	"digruber/internal/netsim"
	"digruber/internal/vtime"
	"digruber/internal/wire"
)

func TestSingleCallScheduling(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 1, clock, testStatuses(50, 80, 10))
	c, err := NewClient(ClientConfig{
		Name: "client-sc", DPName: "dp-0", DPNode: "dp-0", DPAddr: h.dps[0].Addr(),
		Transport: h.mem, Clock: clock, Timeout: 5 * time.Second,
		SingleCall: true,
		RNG:        netsim.Stream(1, "sc"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dec := c.Schedule(testJob("j1"))
	if dec.Err != nil || !dec.Handled {
		t.Fatalf("decision = %+v", dec)
	}
	if dec.Site != "site-001" {
		t.Fatalf("site = %s, want site-001", dec.Site)
	}
	// The dispatch is recorded server-side without a report call.
	if got := h.dps[0].Engine().EstFreeCPUs("site-001"); got != 79 {
		t.Fatalf("DP view = %d, want 79", got)
	}
	st := h.dps[0].Engine().Stats()
	if st.LocalDispatches != 1 {
		t.Fatalf("dispatches = %d", st.LocalDispatches)
	}
}

func TestSingleCallNoQualifyingSiteFallsBack(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 1, clock, testStatuses(0, 0))
	c, _ := NewClient(ClientConfig{
		Name: "client-sc", DPName: "dp-0", DPNode: "dp-0", DPAddr: h.dps[0].Addr(),
		Transport: h.mem, Clock: clock, Timeout: 5 * time.Second,
		SingleCall:    true,
		FallbackSites: []string{"site-000"},
		RNG:           netsim.Stream(1, "sc2"),
	})
	defer c.Close()
	dec := c.Schedule(testJob("j1"))
	if dec.Err != nil {
		t.Fatal(dec.Err)
	}
	if !dec.Handled || dec.Site != "site-000" {
		t.Fatalf("decision = %+v, want handled fallback", dec)
	}
}

func TestSingleCallValidation(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 1, clock, testStatuses(10))
	cli := wire.NewClient(wire.ClientConfig{
		Node: "x", ServerNode: "dp-0", Addr: h.dps[0].Addr(), Transport: h.mem, Clock: clock,
	})
	defer cli.Close()
	if _, err := wire.Call[ScheduleArgs, ScheduleReply](cli, MethodSchedule,
		ScheduleArgs{JobID: "j", Owner: "atlas", CPUs: 0, Runtime: time.Hour}, time.Second); err == nil {
		t.Fatal("zero CPUs accepted")
	}
	if _, err := wire.Call[ScheduleArgs, ScheduleReply](cli, MethodSchedule,
		ScheduleArgs{JobID: "j", Owner: "bad..path", CPUs: 1, Runtime: time.Hour}, time.Second); err == nil {
		t.Fatal("bad owner accepted")
	}
}

func TestClientRebind(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 2, clock, testStatuses(100))
	c := h.client(0, 0, nil)
	if dec := c.Schedule(testJob("r1")); dec.Err != nil {
		t.Fatal(dec.Err)
	}
	if h.dps[0].Engine().Stats().Queries != 1 {
		t.Fatal("dp-0 did not serve the first query")
	}
	c.Rebind(h.dps[1].Name(), h.dps[1].Name(), h.dps[1].Addr())
	if got := c.DPName(); got != "dp-1" {
		t.Fatalf("DPName after rebind = %s", got)
	}
	if dec := c.Schedule(testJob("r2")); dec.Err != nil {
		t.Fatal(dec.Err)
	}
	if h.dps[1].Engine().Stats().Queries != 1 {
		t.Fatal("dp-1 did not serve the post-rebind query")
	}
	// Rebinding to the same target is a no-op.
	c.Rebind(h.dps[1].Name(), h.dps[1].Name(), h.dps[1].Addr())
	if dec := c.Schedule(testJob("r3")); dec.Err != nil {
		t.Fatal(dec.Err)
	}
}

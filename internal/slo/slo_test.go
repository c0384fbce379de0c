package slo

import (
	"bytes"
	"math"
	"testing"
	"time"

	"digruber/internal/tsdb"
)

var epoch = time.Date(2005, 11, 12, 0, 0, 0, 0, time.UTC)

// harness drives one VO's objective minute by minute: each step
// observes a scripted mix of good/bad latencies, samples the registry,
// and evaluates.
type harness struct {
	reg  *tsdb.Registry
	hist *tsdb.Histogram
	ctr  *tsdb.Counter
	ev   *Evaluator
	now  time.Time
}

func newHarness(t *testing.T, mutate func(*Config)) *harness {
	t.Helper()
	reg := tsdb.New(0)
	h := &harness{
		reg:  reg,
		hist: reg.Histogram("vo/test/latency_s", []float64{1, 5}),
		ctr:  reg.Counter("vo/test/handled"),
		now:  epoch,
	}
	cfg := Config{
		Registry: reg,
		Objectives: []Objective{{
			VO: "test", LatencySeries: "vo/test/latency_s",
			LatencyThreshold: 1, LatencyTarget: 0.9,
			GoodputSeries: "vo/test/handled", GoodputFloor: 0.05,
		}},
		FastWindow: 5 * time.Minute, SlowWindow: 15 * time.Minute,
		BurnThreshold: 1, PendingFor: 2 * time.Minute, ResolveAfter: 3 * time.Minute,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	ev, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.ev = ev
	return h
}

// step advances one virtual minute with good requests under the
// threshold and bad ones over it, then evaluates.
func (h *harness) step(good, bad int) Assessment {
	for i := 0; i < good; i++ {
		h.hist.ObserveTrace(0.5, 0, time.Time{})
	}
	for i := 0; i < bad; i++ {
		h.hist.ObserveTrace(3.0, 0, time.Time{})
	}
	h.ctr.Add(int64(good + bad))
	h.now = h.now.Add(time.Minute)
	h.reg.Sample(h.now)
	return h.ev.Evaluate(h.now)[0]
}

// state is the VO's alert state as a status surface reads it: Alerts
// lists every alert that is not inactive.
func (h *harness) state() AlertState {
	if al := h.ev.Alerts(); len(al) > 0 {
		return al[0].State
	}
	return StateInactive
}

func TestAttainmentAndBurn(t *testing.T) {
	h := newHarness(t, nil)

	// No traffic: an idle VO meets its objective.
	as := h.step(0, 0)
	if as.AttainFast != 1 || as.BurnFast != 0 || h.state() != StateInactive {
		t.Fatalf("idle assessment: %+v", as)
	}

	// 9 good + 1 bad per minute = exactly the 0.9 target: attainment 0.9,
	// burn 1.0 on both windows once they hold data.
	for i := 0; i < 6; i++ {
		as = h.step(9, 1)
	}
	if math.Abs(as.AttainFast-0.9) > 1e-9 {
		t.Fatalf("attainment fast = %v, want 0.9", as.AttainFast)
	}
	if math.Abs(as.BurnFast-1.0) > 1e-9 {
		t.Fatalf("burn fast = %v, want 1.0", as.BurnFast)
	}

	// All-good traffic: burn 0.
	for i := 0; i < 20; i++ {
		as = h.step(10, 0)
	}
	if as.BurnFast != 0 || as.BurnSlow != 0 {
		t.Fatalf("all-good burn: %+v", as)
	}
	if as.Goodput <= 0 || !as.GoodputOK {
		t.Fatalf("goodput: %+v", as)
	}
}

func TestGoodputFloor(t *testing.T) {
	h := newHarness(t, nil)
	// 10/min = 0.166/s meets the 0.05/s floor; 1/min = 0.016/s does not.
	var as Assessment
	for i := 0; i < 6; i++ {
		as = h.step(10, 0)
	}
	if !as.GoodputOK {
		t.Fatalf("floor met but GoodputOK=false: %+v", as)
	}
	for i := 0; i < 6; i++ {
		as = h.step(1, 0)
	}
	if as.GoodputOK {
		t.Fatalf("floor missed but GoodputOK=true: %+v", as)
	}
}

// TestAlertLifecycle walks the full machine: inactive → pending →
// firing → resolved, with the hysteresis delays and the counters and
// log observing every edge.
func TestAlertLifecycle(t *testing.T) {
	h := newHarness(t, nil)

	// Warm up healthy.
	for i := 0; i < 16; i++ {
		if as := h.step(10, 0); h.state() != StateInactive {
			t.Fatalf("healthy traffic raised an alert: %+v", as)
		}
	}

	// Outage: everything misses the threshold. Fast window burns first;
	// the alert may not leave inactive until the slow window burns too.
	var pendingAt, firingAt int
	for i := 1; i <= 30; i++ {
		h.step(0, 10)
		if h.state() == StatePending && pendingAt == 0 {
			pendingAt = i
		}
		if h.state() == StateFiring {
			firingAt = i
			break
		}
	}
	if pendingAt == 0 || firingAt == 0 {
		t.Fatalf("outage never fired (pending at %d, firing at %d)", pendingAt, firingAt)
	}
	if firingAt-pendingAt < 2 {
		t.Fatalf("fired %d min after pending, want >= PendingFor (2m)", firingAt-pendingAt)
	}

	// Recovery: all-good traffic drains the fast window; the alert
	// resolves ResolveAfter after the fast burn clears, even though the
	// slow window still remembers the outage.
	resolvedAfter := 0
	for i := 1; i <= 30; i++ {
		h.step(10, 0)
		if h.state() == StateInactive {
			resolvedAfter = i
			break
		}
	}
	if resolvedAfter == 0 {
		t.Fatal("alert never resolved after recovery")
	}

	// Transition log: pending → firing → resolved, in order.
	trs := h.ev.Transitions()
	if len(trs) != 3 {
		t.Fatalf("transition log = %+v, want 3 entries", trs)
	}
	wantTo := []AlertState{StatePending, StateFiring, StateInactive}
	for i, tr := range trs {
		if tr.To != wantTo[i] || tr.VO != "test" {
			t.Fatalf("transition %d = %+v, want to=%v", i, tr, wantTo[i])
		}
	}
	if trs[1].ToState != "firing" {
		t.Fatalf("transition log spells %+v", trs[1])
	}
}

// TestPendingCancel: a burst that subsides before PendingFor elapses
// cancels back to inactive without firing. PendingFor must outlast the
// fast window here, since burn persists until the bad minutes rotate
// out of it.
func TestPendingCancel(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.PendingFor = 8 * time.Minute
	})
	for i := 0; i < 16; i++ {
		h.step(10, 0)
	}
	// Burn both windows just long enough to go pending.
	for i := 0; i < 30 && h.state() != StatePending; i++ {
		h.step(0, 10)
	}
	if h.state() != StatePending {
		t.Fatal("never went pending")
	}
	// Recover immediately: the pending alert must cancel, not fire.
	for i := 0; i < 10; i++ {
		h.step(10, 0)
	}
	if h.state() != StateInactive {
		t.Fatalf("pending did not cancel: %+v", h.ev.Alerts())
	}
	for _, tr := range h.ev.Transitions() {
		if tr.To == StateFiring {
			t.Fatalf("short burst fired: %+v", h.ev.Transitions())
		}
	}
}

func TestAlertsAndFiringCount(t *testing.T) {
	h := newHarness(t, nil)
	if n := h.ev.FiringCount(); n != 0 {
		t.Fatalf("firing count = %d at start", n)
	}
	if al := h.ev.Alerts(); len(al) != 0 {
		t.Fatalf("alerts at start: %+v", al)
	}
	for i := 0; i < 40; i++ {
		h.step(0, 10)
	}
	if n := h.ev.FiringCount(); n != 1 {
		t.Fatalf("firing count = %d after outage", n)
	}
	al := h.ev.Alerts()
	if len(al) != 1 || al[0].VO != "test" || al[0].State != StateFiring || al[0].BurnFast <= 0 {
		t.Fatalf("alerts after outage: %+v", al)
	}
}

func TestConfigValidation(t *testing.T) {
	reg := tsdb.New(0)
	cases := []Config{
		{},              // no registry
		{Registry: reg}, // no objectives
		{Registry: reg, Objectives: []Objective{{VO: "a"}}},                                         // no series
		{Registry: reg, Objectives: []Objective{{VO: "a", LatencySeries: "s", LatencyTarget: 1.5}}}, // bad target
		{Registry: reg, Objectives: []Objective{{VO: "a", LatencySeries: "s", LatencyTarget: 0.9, LatencyThreshold: 1}, {VO: "a", LatencySeries: "s", LatencyTarget: 0.9, LatencyThreshold: 1}}}, // dup
	}
	for i, c := range cases {
		if _, err := New(c); err == nil {
			t.Fatalf("case %d: config %+v accepted", i, c)
		}
	}
}

func TestWriteTransitionsJSONLDeterministic(t *testing.T) {
	run := func() []byte {
		h := newHarness(t, nil)
		for i := 0; i < 16; i++ {
			h.step(10, 0)
		}
		for i := 0; i < 20; i++ {
			h.step(0, 10)
		}
		for i := 0; i < 20; i++ {
			h.step(10, 0)
		}
		var buf bytes.Buffer
		if err := WriteTransitionsJSONL(&buf, h.ev.Transitions()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no transitions serialized")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("transition JSONL not byte-identical:\n%s\nvs\n%s", a, b)
	}
}

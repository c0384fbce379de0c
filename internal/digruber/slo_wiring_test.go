package digruber

import (
	"testing"
	"time"

	"digruber/internal/grid"
	"digruber/internal/trace"
	"digruber/internal/tsdb"
	"digruber/internal/vtime"
	"digruber/internal/wire"
)

// TestClientLatencyExemplar: the client's Latency hook observes each
// completed scheduling operation into the selected histogram with the
// decision's trace ID as the bucket exemplar — the metrics→trace join
// the SLO plane drills through.
func TestClientLatencyExemplar(t *testing.T) {
	clock := vtime.NewManual(epoch)
	h := newHarness(t, 1, clock, testStatuses(50, 50))
	sites := []string{"site-000", "site-001"}

	col := trace.NewCollector(0)
	tracer := trace.New(trace.Config{Actor: "client-0", Seed: 3, Clock: clock, Collector: col})
	reg := tsdb.New(0)
	hist := reg.Histogram("vo/atlas/latency_s", []float64{0.5, 5})

	c, err := NewClient(ClientConfig{
		Name: "client-0", DPName: h.dps[0].Name(), DPNode: h.dps[0].Name(),
		DPAddr: h.dps[0].Addr(), Transport: h.mem, Clock: clock,
		Timeout: 5 * time.Second, FallbackSites: sites,
		Tracer:  tracer,
		Latency: func(j *grid.Job) *tsdb.Histogram { return hist },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	dec := c.Schedule(testJob("j1"))
	if dec.Err != nil || dec.TraceID == 0 {
		t.Fatalf("decision: %+v", dec)
	}
	// Instant stack, Manual clock: zero response time, bucket 0.
	ex := hist.Exemplars()
	if !ex[0].Valid() || ex[0].Trace != dec.TraceID {
		t.Fatalf("latency exemplar = %+v, want trace %d", ex[0], dec.TraceID)
	}
	if ex[0].V != dec.Response.Seconds() {
		t.Fatalf("exemplar value %v != response %v", ex[0].V, dec.Response.Seconds())
	}

	// The exemplar's trace resolves in the collector: the root span of
	// that trace is the client.schedule span.
	trees := trace.BuildTrees(col.Records())
	found := false
	for _, tr := range trees {
		if tr.Root.Trace == dec.TraceID && tr.Root.Name == trace.PhaseSchedule {
			found = true
		}
	}
	if !found {
		t.Fatalf("exemplar trace %d has no %s root in the collector", dec.TraceID, trace.PhaseSchedule)
	}
}

// TestDPHandleExemplar: the decision point's server-side scheduling
// handlers observe into dp/<name>/handle_s with the propagated request
// trace as the exemplar, so a server-side spike is drillable too.
func TestDPHandleExemplar(t *testing.T) {
	clock := vtime.NewManual(epoch)
	mem := wire.NewMem()
	reg := tsdb.New(0)
	col := trace.NewCollector(0)
	dp, err := New(Config{
		Name: "dp-0", Addr: "dp-0", Transport: mem, Clock: clock,
		Profile: wire.Instant(), ExchangeInterval: time.Hour,
		Metrics: reg,
		Tracer:  trace.New(trace.Config{Actor: "dp-0", Seed: 5, Clock: clock, Collector: col}),
	})
	if err != nil {
		t.Fatal(err)
	}
	dp.Engine().UpdateSites(testStatuses(50, 50), clock.Now())
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()

	tracer := trace.New(trace.Config{Actor: "client-0", Seed: 9, Clock: clock, Collector: col})
	c, err := NewClient(ClientConfig{
		Name: "client-0", DPName: "dp-0", DPNode: "dp-0", DPAddr: "dp-0",
		Transport: mem, Clock: clock, Timeout: 5 * time.Second,
		FallbackSites: []string{"site-000"}, Tracer: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	dec := c.Schedule(testJob("j1"))
	if dec.Err != nil || !dec.Handled {
		t.Fatalf("decision: %+v", dec)
	}
	var got tsdb.Exemplar
	for _, ex := range reg.Exemplars("dp/dp-0/handle_s") {
		if ex.Valid() {
			got = ex
		}
	}
	if got.Trace != dec.TraceID {
		t.Fatalf("handle exemplar = %+v, want the request trace %d", got, dec.TraceID)
	}
}

// TestControllerSLOFiringSignal: a firing SLO alert reads as pressure —
// the controller scales up on the SLO signal alone, with queues, sheds
// and demand all quiet — and vetoes idle while it stays firing.
func TestControllerSLOFiringSignal(t *testing.T) {
	iv := time.Minute
	firing := 0
	cfg := ControllerConfig{
		Interval: iv, MaxDPs: 2,
		ScaleUpAfter: 2, ScaleDownAfter: 2,
		UpCooldown: iv, DownCooldown: iv,
		DrainTimeout: time.Minute,
		Signals:      rigSignals(4 * iv),
		SLOFiring:    func() int { return firing },
	}
	r := newControllerRig(t, cfg)
	r.reg.Sample(r.clock.Now())

	firing = 1
	if act, err := r.step(iv, 0); err != nil || act != ActionNone {
		t.Fatalf("pass 1: act=%q err=%v, want none (streak 1/2)", act, err)
	}
	if act, err := r.step(iv, 0); err != nil || act != ActionScaleUp {
		t.Fatalf("pass 2: act=%q err=%v, want scale-up on the SLO signal", act, err)
	}
	if got := len(r.ctl.Fleet()); got != 2 {
		t.Fatalf("fleet size = %d after SLO scale-up, want 2", got)
	}

	// Still firing: idle never accrues, the fleet holds at 2.
	for i := 0; i < 6; i++ {
		if act, _ := r.step(iv, 0); act != ActionNone {
			t.Fatalf("firing alert did not veto idle: %q at pass %d", act, i)
		}
	}

	// Resolved: idleness accrues and the extra member retires.
	firing = 0
	acted := false
	for i := 0; i < 6; i++ {
		act, err := r.step(iv, 0)
		if err != nil {
			t.Fatal(err)
		}
		if act == ActionScaleDown {
			acted = true
			break
		}
	}
	if !acted || len(r.ctl.Fleet()) != 1 {
		t.Fatalf("fleet did not shrink after the alert resolved: %v", fleetNames(r.ctl))
	}
}

// TestStatusAttachesAlerts: a wired alert source's summary rides the
// Status reply; detached or empty sources leave Alerts nil.
func TestStatusAttachesAlerts(t *testing.T) {
	clock := vtime.NewManual(epoch)
	h := newHarness(t, 1, clock, testStatuses(50))
	dp := h.dps[0]

	if st := dp.Status(); st.Alerts != nil {
		t.Fatalf("unwired alert source produced %+v", st.Alerts)
	}
	want := []AlertSummary{{VO: "atlas", State: "firing", Since: epoch, Burn: 2.5}}
	dp.SetAlertSource(func() []AlertSummary { return want })
	st := dp.Status()
	if len(st.Alerts) != 1 || st.Alerts[0] != want[0] {
		t.Fatalf("Status alerts = %+v, want %+v", st.Alerts, want)
	}
	dp.SetAlertSource(nil)
	if st := dp.Status(); st.Alerts != nil {
		t.Fatalf("detached alert source produced %+v", st.Alerts)
	}
}

package exp

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"digruber/internal/digruber"
	"digruber/internal/grid"
	"digruber/internal/netsim"
	"digruber/internal/tsdb"
	"digruber/internal/usla"
	"digruber/internal/vtime"
	"digruber/internal/wire"
)

// overloadFixture scripts the whole overload plane through one
// deterministic Manual-clock scenario: three mesh-lane brokers, one
// fully-armed client (deadline propagation, retry budget, per-broker
// breakers, load-aware failover), a primary outage that trips the
// breaker and drains the budget, a deadline-expired request dropped at
// dequeue, and a post-cooldown heal that re-closes the breaker. Every
// observable lands in the returned registry, sampled once per scripted
// step, so the series are a pure function of the script.
func overloadFixture(t *testing.T) *tsdb.Registry {
	t.Helper()
	clock := vtime.NewManual(Epoch)
	mem := wire.NewMem()
	reg := tsdb.New(0)

	sites := []grid.Status{
		{Name: "site-000", TotalCPUs: 100, FreeCPUs: 100},
		{Name: "site-001", TotalCPUs: 100, FreeCPUs: 100},
	}
	names := []string{"ov-a", "ov-b", "ov-c"}
	dps := make([]*digruber.DecisionPoint, len(names))
	for i, name := range names {
		dp, err := digruber.New(digruber.Config{
			Name: name, Addr: "ovl/" + name, Transport: mem, Clock: clock,
			Profile: wire.Instant(),
			// Rounds are never driven here; the ticker must not fire.
			ExchangeInterval: time.Hour,
			MeshLane:         1,
			Metrics:          reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		dp.Engine().UpdateSites(append([]grid.Status(nil), sites...), clock.Now())
		if err := dp.Start(); err != nil {
			t.Fatal(err)
		}
		defer dp.Stop()
		dps[i] = dp
	}

	metrics := wire.NewClientMetrics()
	reg.GaugeFunc("client/ov/wire/throttled", func(time.Time) float64 {
		return float64(metrics.Stats().Throttled)
	})
	reg.GaugeFunc("client/ov/wire/attempts", func(time.Time) float64 {
		return float64(metrics.Stats().Attempts)
	})
	brkOpen := reg.Counter("client/ov/breaker/open")
	brkHalf := reg.Counter("client/ov/breaker/half_open")
	brkClosed := reg.Counter("client/ov/breaker/closed")

	c, err := digruber.NewClient(digruber.ClientConfig{
		Name: "ov-client", Node: "ov-client",
		DPName: "ov-a", DPNode: "ov-a", DPAddr: "ovl/ov-a",
		Transport: mem, Clock: clock, Timeout: 5 * time.Second,
		FallbackSites: []string{"fallback"},
		RNG:           netsim.Stream(11, "exp.overload.fixture"),
		WireMetrics:   metrics,
		Failover: []digruber.DPRef{
			{Name: "ov-b", Node: "ov-b", Addr: "ovl/ov-b"},
			{Name: "ov-c", Node: "ov-c", Addr: "ovl/ov-c"},
		},
		// Burst 2, negligible refill: the outage spends the whole budget
		// and the next failure is throttled after a single attempt.
		Retry:             wire.RetryPolicy{Attempts: 3, Budget: wire.NewRetryBudget(clock, 1.0/3600, 2)},
		PropagateDeadline: true,
		Breaker: wire.BreakerConfig{
			Threshold: 2, Cooldown: 10 * time.Minute,
			OnTransition: func(from, to wire.BreakerState) {
				switch to {
				case wire.BreakerOpen:
					brkOpen.Inc()
				case wire.BreakerHalfOpen:
					brkHalf.Inc()
				case wire.BreakerClosed:
					brkClosed.Inc()
				}
			},
		},
		LoadAwareFailover: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// quiesce waits (real time) for the running brokers' deferred
	// in-flight accounting to settle, so samples read a settled fleet.
	quiesce := func(down int) {
		deadline := time.Now().Add(5 * time.Second)
		for i, dp := range dps {
			if i == down {
				continue
			}
			for dp.Status().InFlight != 0 {
				if time.Now().After(deadline) {
					t.Fatal("fleet did not quiesce")
				}
				time.Sleep(time.Millisecond)
			}
		}
	}
	step := func(down int) {
		quiesce(down)
		clock.Advance(time.Minute)
		reg.Sample(clock.Now())
	}
	job := func(id string) *grid.Job {
		return &grid.Job{ID: grid.JobID(id), Owner: usla.MustParsePath("atlas"),
			CPUs: 1, Runtime: time.Hour, SubmitHost: "ov-client"}
	}

	// Healthy baseline: the primary handles everything.
	for i := 0; i < 3; i++ {
		if dec := c.Schedule(job(fmt.Sprintf("warm-%d", i))); !dec.Handled {
			t.Fatalf("warm-%d not handled by a healthy primary: %+v", i, dec)
		}
		step(-1)
	}

	// Primary outage. The first storm job burns the retry budget, the
	// second is throttled after one attempt and trips the breaker, and
	// the third fails fast against it and triggers load-aware failover
	// (tie between ov-b and ov-c: list order wins).
	dps[0].Stop()
	for i := 0; i < 3; i++ {
		if dec := c.Schedule(job(fmt.Sprintf("storm-%d", i))); dec.Handled || dec.Site != "fallback" {
			t.Fatalf("storm-%d against a dead primary = %+v, want fallback", i, dec)
		}
		step(0)
	}
	if got := c.DPName(); got != "ov-b" {
		t.Fatalf("client failed over to %q, want ov-b", got)
	}
	if dec := c.Schedule(job("storm-3")); !dec.Handled {
		t.Fatalf("storm-3 not handled after failover: %+v", dec)
	}
	step(0)

	// Deadline expiry at the dequeue boundary: a zero-timeout call stamps
	// Deadline = now on the frame before the caller's own timeout check
	// fires, so the broker drops it as stale work without invoking the
	// handler — even on a frozen clock.
	stale := wire.NewClient(wire.ClientConfig{
		Node: "ov-stale", ServerNode: "ov-b", Addr: "ovl/ov-b",
		Transport: mem, Clock: clock, PropagateDeadline: true,
	})
	if _, err := wire.Call[digruber.StatusArgs, digruber.StatusReply](
		stale, digruber.MethodStatus, digruber.StatusArgs{}, 0); !errors.Is(err, wire.ErrTimeout) {
		t.Fatalf("zero-deadline call err = %v, want %v", err, wire.ErrTimeout)
	}
	stale.Close()
	expDeadline := time.Now().Add(5 * time.Second)
	for dps[1].Status().Expired != 1 {
		if time.Now().After(expDeadline) {
			t.Fatalf("expired drop never surfaced: status %+v", dps[1].Status())
		}
		time.Sleep(time.Millisecond)
	}
	step(0)

	// Heal: restart the primary, wait out the breaker cooldown, and send
	// the client home. The half-open probe succeeds and the breaker
	// re-closes.
	if err := dps[0].Restart(); err != nil {
		t.Fatal(err)
	}
	clock.Advance(10 * time.Minute)
	c.Rebind("ov-a", "ov-a", "ovl/ov-a")
	if dec := c.Schedule(job("heal-0")); !dec.Handled {
		t.Fatalf("heal-0 not handled by the recovered primary: %+v", dec)
	}
	step(-1)
	for i := 1; i < 3; i++ {
		if dec := c.Schedule(job(fmt.Sprintf("heal-%d", i))); !dec.Handled {
			t.Fatalf("heal-%d not handled: %+v", i, dec)
		}
		step(-1)
	}
	return reg
}

// TestOverloadReplaysByteIdentical is the overload plane's determinism
// acceptance: the same Manual-clock scenario exported twice yields
// byte-identical metrics JSONL — every breaker transition, throttle,
// and expired drop lands at the same timestamp with the same value.
func TestOverloadReplaysByteIdentical(t *testing.T) {
	var a, b bytes.Buffer
	if err := overloadFixture(t).WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := overloadFixture(t).WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if a.Len() == 0 {
		t.Fatal("empty JSONL export")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("identical overload runs produced different metrics JSONL")
	}
}

// TestOverloadFixtureSeries checks the plane's observables end-to-end in
// the sampled series: the breaker walked open → half-open → closed
// exactly once, the budget throttled at least one retry, and the stale
// request landed in the broker's dedicated expired counter.
func TestOverloadFixtureSeries(t *testing.T) {
	reg := overloadFixture(t)
	if got := lastValue(reg.Points("client/ov/breaker/open")); got != 1 {
		t.Fatalf("breaker open transitions = %v, want 1", got)
	}
	if got := lastValue(reg.Points("client/ov/breaker/half_open")); got != 1 {
		t.Fatalf("breaker half-open transitions = %v, want 1", got)
	}
	if got := lastValue(reg.Points("client/ov/breaker/closed")); got != 1 {
		t.Fatalf("breaker re-close transitions = %v, want 1", got)
	}
	if got := lastValue(reg.Points("client/ov/wire/throttled")); got < 1 {
		t.Fatalf("throttled retries = %v, want >= 1", got)
	}
	if got := lastValue(reg.Points("dp/ov-b/wire/expired")); got != 1 {
		t.Fatalf("ov-b expired drops = %v, want 1", got)
	}
	if got := lastValue(reg.Points("dp/ov-a/wire/expired")); got != 0 {
		t.Fatalf("ov-a expired drops = %v, want 0", got)
	}
}

package digruber

import (
	"fmt"
	"testing"
	"time"

	"digruber/internal/netsim"
	"digruber/internal/vtime"
	"digruber/internal/wire"
)

// breakerClient builds a client with the overload plane's client-side
// pieces: a small failover threshold, per-broker breakers, and
// (optionally) load-aware failover.
func breakerClient(t *testing.T, h *harness, clock vtime.Clock, loadAware bool, failover ...int) (*Client, *wire.ClientMetrics) {
	t.Helper()
	metrics := wire.NewClientMetrics()
	var refs []DPRef
	for _, i := range failover {
		refs = append(refs, DPRef{Name: h.dps[i].Name(), Node: h.dps[i].Name(), Addr: h.dps[i].Addr()})
	}
	c, err := NewClient(ClientConfig{
		Name: "c", Node: "c",
		DPName: h.dps[0].Name(), DPNode: h.dps[0].Name(), DPAddr: h.dps[0].Addr(),
		Transport: h.mem, Clock: clock, Timeout: 5 * time.Second,
		FallbackSites:     []string{"fb"},
		RNG:               netsim.Stream(1, "overload.client"),
		WireMetrics:       metrics,
		Failover:          refs,
		Breaker:           wire.BreakerConfig{Threshold: 2, Cooldown: 10 * time.Minute},
		LoadAwareFailover: loadAware,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c, metrics
}

// TestClientBreakerFailsFast: consecutive transport failures trip the
// per-broker breaker; further jobs fall back locally without touching
// the wire, and after the cooldown one probe re-closes the breaker
// against the recovered broker.
func TestClientBreakerFailsFast(t *testing.T) {
	clock := vtime.NewManual(epoch)
	h := newHarness(t, 1, clock, testStatuses(50, 80))
	c, metrics := breakerClient(t, h, clock, false)

	h.dps[0].Stop()
	for i := 0; i < 2; i++ {
		if dec := c.Schedule(testJob(fmt.Sprintf("b%d", i))); dec.Handled {
			t.Fatalf("job %d handled by a stopped broker", i)
		}
	}
	c.mu.Lock()
	br := c.breakerLocked(h.dps[0].Addr())
	c.mu.Unlock()
	if br.State() != wire.BreakerOpen {
		t.Fatalf("breaker state after threshold failures = %v, want open", br.State())
	}

	// Open breaker: the next job degrades instantly and sends nothing.
	attempts := metrics.Stats().Attempts
	dec := c.Schedule(testJob("gated"))
	if dec.Handled || dec.Site != "fb" || dec.Err != nil {
		t.Fatalf("breaker-gated decision = %+v, want instant fallback", dec)
	}
	if got := metrics.Stats().Attempts; got != attempts {
		t.Fatalf("breaker-gated job still sent %d wire attempt(s)", got-attempts)
	}

	// Broker recovers; after the cooldown the half-open probe re-closes.
	if err := h.dps[0].Restart(); err != nil {
		t.Fatal(err)
	}
	dec = c.Schedule(testJob("still-gated"))
	if dec.Handled {
		t.Fatal("job handled while the breaker's cooldown is still running")
	}
	clock.Advance(10 * time.Minute)
	dec = c.Schedule(testJob("probe"))
	if !dec.Handled || dec.Err != nil {
		t.Fatalf("post-cooldown probe decision = %+v, want handled", dec)
	}
	if br.State() != wire.BreakerClosed {
		t.Fatalf("breaker state after successful probe = %v, want closed", br.State())
	}
}

// TestLoadAwareFailoverSkipsOpenBreakers: when the failover threshold
// fires, a load-aware client probes the candidates and skips any whose
// breaker is already open — even if ring order would pick them first.
func TestLoadAwareFailoverSkipsOpenBreakers(t *testing.T) {
	clock := vtime.NewManual(epoch)
	h := newHarness(t, 3, clock, testStatuses(50, 80))
	c, _ := breakerClient(t, h, clock, true, 1, 2)

	// dp-1 is known bad: its breaker is open from earlier observations.
	c.mu.Lock()
	br1 := c.breakerLocked(h.dps[1].Addr())
	c.mu.Unlock()
	br1.Record(wire.ErrTimeout)
	br1.Record(wire.ErrTimeout)
	if br1.State() != wire.BreakerOpen {
		t.Fatalf("setup: dp-1 breaker = %v, want open", br1.State())
	}

	h.dps[0].Stop()
	for i := 0; i < failoverThreshold; i++ {
		c.Schedule(testJob(fmt.Sprintf("lf%d", i)))
	}
	if got := c.DPName(); got != h.dps[2].Name() {
		t.Fatalf("client bound to %q, want %q (ring-first dp-1 has an open breaker)", got, h.dps[2].Name())
	}
	if dec := c.Schedule(testJob("after")); !dec.Handled || dec.Err != nil {
		t.Fatalf("post-failover decision = %+v, want handled", dec)
	}
}

// TestLoadAwareFailoverTieKeepsListOrder: with all candidates equally
// idle the probe is a tie, and the earliest candidate in the failover
// list wins — the choice stays deterministic.
func TestLoadAwareFailoverTieKeepsListOrder(t *testing.T) {
	clock := vtime.NewManual(epoch)
	h := newHarness(t, 3, clock, testStatuses(50, 80))
	c, _ := breakerClient(t, h, clock, true, 1, 2)

	h.dps[0].Stop()
	for i := 0; i < failoverThreshold; i++ {
		c.Schedule(testJob(fmt.Sprintf("tie%d", i)))
	}
	if got := c.DPName(); got != h.dps[1].Name() {
		t.Fatalf("client bound to %q, want %q (first candidate on a tie)", got, h.dps[1].Name())
	}
}

// TestMeshLaneStatusUnderConfig: a decision point with a reserved mesh
// lane still answers Status (routed through the lane) and reports the
// service stack's expired count through the appended StatusReply field.
func TestMeshLaneStatusUnderConfig(t *testing.T) {
	clock := vtime.NewManual(epoch)
	mem := wire.NewMem()
	dp, err := New(Config{
		Name: "dp-lane", Addr: "dp-lane", Transport: mem, Clock: clock,
		Profile: wire.Instant(), ExchangeInterval: time.Hour, MeshLane: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	dp.Engine().UpdateSites(testStatuses(10), clock.Now())
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dp.Stop)

	cli := wire.NewClient(wire.ClientConfig{
		Node: "mon", ServerNode: "dp-lane", Addr: "dp-lane", Transport: mem, Clock: clock,
	})
	t.Cleanup(cli.Close)
	st, err := wire.Call[StatusArgs, StatusReply](cli, MethodStatus, StatusArgs{}, 5*time.Second)
	if err != nil {
		t.Fatalf("Status through the mesh lane: %v", err)
	}
	if st.Name != "dp-lane" || st.Expired != 0 {
		t.Fatalf("status = %+v, want name dp-lane and zero expired", st)
	}
}

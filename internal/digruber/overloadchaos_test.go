package digruber

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"digruber/internal/grid"
	"digruber/internal/netsim"
	"digruber/internal/usla"
	"digruber/internal/vtime"
	"digruber/internal/wire"
)

// overloadChaosDigest is the replayable fingerprint of a combined
// overload + fault-plane run: every decision, per-wave goodput, the
// budget's throttle count, each client's final home-breaker state, and
// every broker's final usage view.
type overloadChaosDigest struct {
	Decisions   []chaosDecision
	WaveHandled []int
	Throttled   int64
	Breakers    map[string]string
	Views       map[string][]int
}

// runOverloadChaosScenario drives a 6-point mesh with the full overload
// plane armed on every client — deadline propagation, a shared retry
// budget, per-broker breakers, load-aware failover — while a seeded
// netsim.FaultPlane opens crash windows for two brokers mid-run. The
// plane's windows are consulted at every virtual step to crash and heal
// the matching processes, so the whole scenario is a pure function of
// the seed and replays bit-for-bit.
func runOverloadChaosScenario(t *testing.T) overloadChaosDigest {
	t.Helper()
	const nDP = 6
	clock := vtime.NewManual(epoch)
	mem := wire.NewMem()
	sites := testStatuses(100, 100, 100, 100)
	siteNames := make([]string, len(sites))
	for i, s := range sites {
		siteNames[i] = s.Name
	}

	dps := make([]*DecisionPoint, nDP)
	for i := 0; i < nDP; i++ {
		dp, err := New(Config{
			Name: fmt.Sprintf("dp-%d", i), Addr: fmt.Sprintf("dp-%d", i),
			Transport: mem, Clock: clock, Profile: wire.Instant(),
			Strategy:         UsageOnly,
			ExchangeInterval: 24 * time.Hour, // rounds driven by hand
			PeerTimeout:      30 * time.Second,
			MeshLane:         1,
		})
		if err != nil {
			t.Fatal(err)
		}
		dp.Engine().UpdateSites(sites, clock.Now())
		dps[i] = dp
	}
	for _, dp := range dps {
		for _, peer := range dps {
			if peer != dp {
				dp.AddPeer(peer.Name(), peer.Name(), peer.Addr())
			}
		}
		if err := dp.Start(); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, dp := range dps {
			dp.Stop()
		}
	})

	// The whole fleet shares one retry budget, as co-located submission
	// hosts would: tiny refill, burst 2, so a wave of correlated failures
	// drains it and later victims throttle instead of amplifying.
	metrics := wire.NewClientMetrics()
	budget := wire.NewRetryBudget(clock, 0.1, 2)
	clients := make([]*Client, nDP)
	homes := make([]DPRef, nDP)
	for i := 0; i < nDP; i++ {
		homes[i] = DPRef{Name: dps[i].Name(), Node: dps[i].Name(), Addr: dps[i].Addr()}
		chain := make([]DPRef, 0, nDP-1)
		for k := 1; k < nDP; k++ {
			p := dps[(i+k)%nDP]
			chain = append(chain, DPRef{Name: p.Name(), Node: p.Name(), Addr: p.Addr()})
		}
		c, err := NewClient(ClientConfig{
			Name:   fmt.Sprintf("client-%d", i),
			DPName: homes[i].Name, DPNode: homes[i].Node, DPAddr: homes[i].Addr,
			Transport: mem, Clock: clock, Timeout: 10 * time.Second,
			FallbackSites:     siteNames,
			RNG:               netsim.Stream(99, fmt.Sprintf("ovchaos.client-%d", i)),
			WireMetrics:       metrics,
			Failover:          chain,
			Retry:             wire.RetryPolicy{Attempts: 3, Budget: budget},
			PropagateDeadline: true,
			Breaker:           wire.BreakerConfig{Threshold: 2, Cooldown: 30 * time.Second},
			LoadAwareFailover: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		clients[i] = c
	}

	// Seeded crash windows land on the fault plane; the run consults
	// Down() at each step boundary to crash and heal the processes.
	faults := netsim.NewFaultPlane()
	for _, cr := range netsim.RandomCrashes(13, "overload", []string{
		"dp-1", "dp-2", "dp-3", "dp-4", "dp-5",
	}, 2, 30*time.Second, 90*time.Second, time.Minute, 2*time.Minute) {
		faults.CrashNode(cr.Node, epoch.Add(cr.From), epoch.Add(cr.Until))
	}
	down := make([]bool, nDP)
	applyFaults := func() {
		for i, dp := range dps {
			d := faults.Down(dp.Name(), clock.Now())
			switch {
			case d && !down[i]:
				dp.Crash()
				down[i] = true
			case !d && down[i]:
				if err := dp.Restart(); err != nil {
					t.Fatalf("restart %s: %v", dp.Name(), err)
				}
				dp.ResyncFromPeers()
				down[i] = false
			}
		}
	}

	digest := overloadChaosDigest{
		Breakers: make(map[string]string),
		Views:    make(map[string][]int),
	}
	jobSeq := 0
	scheduleWave := func() {
		handled := 0
		for _, c := range clients {
			jobSeq++
			id := fmt.Sprintf("job-%03d", jobSeq)
			dec := c.Schedule(&grid.Job{
				ID: grid.JobID(id), Owner: usla.MustParsePath("atlas"),
				CPUs: 1, Runtime: time.Hour, SubmitHost: c.cfg.Name,
			})
			if dec.Handled {
				handled++
			}
			digest.Decisions = append(digest.Decisions, chaosDecision{
				JobID: id, Site: dec.Site, Handled: dec.Handled, BoundTo: c.DPName(),
			})
		}
		digest.WaveHandled = append(digest.WaveHandled, handled)
	}
	exchangeAll := func() {
		for _, dp := range dps {
			dp.ExchangeNow()
		}
	}

	// Main run: 24 ten-second steps span the whole fault schedule (all
	// windows open after +30s and close by +210s). Each step applies the
	// plane's verdicts, schedules a wave, and exchanges every third step.
	for step := 0; step < 24; step++ {
		applyFaults()
		scheduleWave()
		if step%3 == 2 {
			exchangeAll()
		}
		clock.Advance(10 * time.Second)
	}
	applyFaults() // close any window still open at +240s
	for i, d := range down {
		if d {
			t.Fatalf("%s still down after the schedule's horizon", dps[i].Name())
		}
	}

	// Heal phase: wait out the breaker cooldown, send every client home
	// (the rebalance a monitor would perform), and run two final waves —
	// the first re-closes tripped breakers via half-open probes.
	clock.Advance(time.Minute)
	for i, c := range clients {
		c.Rebind(homes[i].Name, homes[i].Node, homes[i].Addr)
	}
	scheduleWave()
	clock.Advance(10 * time.Second)
	scheduleWave()
	exchangeAll()
	exchangeAll() // second round: healed brokers' records flood out

	digest.Throttled = metrics.Stats().Throttled
	for i, c := range clients {
		c.mu.Lock()
		br := c.breakerLocked(homes[i].Addr)
		c.mu.Unlock()
		digest.Breakers[c.cfg.Name] = br.State().String()
	}
	for _, dp := range dps {
		view := make([]int, len(siteNames))
		for si, s := range siteNames {
			view[si] = dp.Engine().EstFreeCPUs(s)
		}
		digest.Views[dp.Name()] = view
	}
	return digest
}

// TestOverloadChaosDeterministic is the combined acceptance for the
// overload plane under faults: with crash windows open, goodput degrades
// without retry amplification (the shared budget throttles correlated
// retries); after the windows close, goodput recovers to the pre-fault
// level and every tripped breaker re-closes; and the entire run — every
// decision, throttle, and view — replays bit-for-bit.
func TestOverloadChaosDeterministic(t *testing.T) {
	first := runOverloadChaosScenario(t)

	pre, during, post := first.WaveHandled[0], 0, 0
	for _, h := range first.WaveHandled[:3] {
		if h != 6 {
			t.Fatalf("pre-fault wave handled %d/6, want all (waves %v)", h, first.WaveHandled)
		}
	}
	for _, h := range first.WaveHandled[3:24] {
		if h < during || during == 0 {
			during = h
		}
	}
	last := first.WaveHandled[len(first.WaveHandled)-1]
	post = last
	if during >= 6 {
		t.Fatalf("no wave degraded during the fault windows: %v", first.WaveHandled)
	}
	if post < pre {
		t.Fatalf("post-heal wave handled %d, want back to pre-fault %d", post, pre)
	}
	if first.Throttled < 1 {
		t.Fatalf("shared retry budget never throttled (throttled=%d)", first.Throttled)
	}
	for client, state := range first.Breakers {
		if state != "closed" {
			t.Fatalf("%s home breaker ended %q, want closed (breakers %v)", client, state, first.Breakers)
		}
	}

	second := runOverloadChaosScenario(t)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("overload chaos runs diverged:\n first %+v\nsecond %+v", first, second)
	}
}

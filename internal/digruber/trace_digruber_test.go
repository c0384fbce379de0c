package digruber

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"digruber/internal/netsim"
	"digruber/internal/trace"
	"digruber/internal/vtime"
	"digruber/internal/wire"
)

// runTracedScenario executes a fixed traced workload — two decision
// points, three scheduled jobs, one exchange round — under a Manual
// clock and returns every span record it produced.
func runTracedScenario(t *testing.T, seed int64) []trace.Record {
	return runTracedScenarioWith(t, seed, UsageOnly)
}

func runTracedScenarioWith(t *testing.T, seed int64, strategy DisseminationStrategy) []trace.Record {
	t.Helper()
	clock := vtime.NewManual(epoch)
	mem := wire.NewMem()
	col := trace.NewCollector(0)
	tracerFor := func(actor string) *trace.Tracer {
		return trace.New(trace.Config{Actor: actor, Seed: seed, Clock: clock, Collector: col})
	}

	var dps []*DecisionPoint
	for i := 0; i < 2; i++ {
		dp, err := New(Config{
			Name:             fmt.Sprintf("dp-%d", i),
			Addr:             fmt.Sprintf("dp-%d", i),
			Transport:        mem,
			Clock:            clock,
			Profile:          wire.Instant(),
			ExchangeInterval: time.Hour,
			Strategy:         strategy,
			Tracer:           tracerFor(fmt.Sprintf("dp-%d", i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		dp.Engine().UpdateSites(testStatuses(50, 80), clock.Now())
		dps = append(dps, dp)
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
	defer func() {
		for _, dp := range dps {
			dp.Stop()
		}
	}()

	c, err := NewClient(ClientConfig{
		Name: "client-0", DPName: dps[0].Name(), DPNode: dps[0].Name(),
		DPAddr: dps[0].Addr(), Transport: mem, Clock: clock,
		Timeout: 5 * time.Second,
		RNG:     netsim.Stream(seed, "test.client-0"),
		Tracer:  tracerFor("client-0"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Requests run one at a time: with a single request in flight the
	// span completion order — and therefore the ID draw order — is fixed.
	for i := 0; i < 3; i++ {
		dec := c.Schedule(testJob(fmt.Sprintf("job-%d", i)))
		if dec.Err != nil || !dec.Handled {
			t.Fatalf("job-%d: %+v", i, dec)
		}
		if dec.TraceID == 0 {
			t.Fatalf("job-%d decision carries no trace ID", i)
		}
		clock.Advance(time.Second)
	}
	// The healthy Instant-profile mesh never blocks on virtual time, so
	// the round runs synchronously with the clock frozen. driveExchange
	// (which advances the clock on a real-time cadence) would race its
	// Advance calls against the in-flight RPCs and make the exchange
	// spans' virtual durations depend on wall-clock scheduling.
	dps[0].ExchangeNow()
	return col.Records()
}

// TestTracedRunIsDeterministic is the tentpole guarantee: the same seed
// under a Manual clock yields an identical span tree — IDs, parents,
// virtual timestamps, durations, everything.
func TestTracedRunIsDeterministic(t *testing.T) {
	a := runTracedScenario(t, 42)
	b := runTracedScenario(t, 42)
	if len(a) == 0 {
		t.Fatal("traced run produced no spans")
	}
	if !reflect.DeepEqual(a, b) {
		for i := range a {
			if i < len(b) && a[i] != b[i] {
				t.Errorf("first divergence at record %d:\n run1 %+v\n run2 %+v", i, a[i], b[i])
				break
			}
		}
		t.Fatalf("same seed produced different traces (%d vs %d records)", len(a), len(b))
	}
	c := runTracedScenario(t, 43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestTracedRequestSpansCoverThePath asserts one scheduled job's trace
// contains the full instrumented path, phases telescoping to the root.
func TestTracedRequestSpansCoverThePath(t *testing.T) {
	records := runTracedScenario(t, 7)
	trees := trace.FilterRoots(trace.BuildTrees(records), trace.PhaseSchedule)
	if len(trees) != 3 {
		t.Fatalf("got %d request trees, want 3", len(trees))
	}
	for _, tree := range trees {
		excl, residual := tree.Exclusive()
		if residual != 0 {
			t.Errorf("request %s: residual %v, want exact telescoping", tree.Root.Note, residual)
		}
		for _, phase := range []string{
			trace.PhaseQuery, trace.PhaseSelect, trace.PhaseReport,
			trace.PhaseAttempt, trace.PhaseHandle, trace.PhaseEngineSelect,
		} {
			if _, ok := excl[phase]; !ok {
				t.Errorf("request %s: phase %s missing (have %v)", tree.Root.Note, phase, excl)
			}
		}
	}
	// The exchange round must be traced too, with the per-peer call.
	rounds := trace.FilterRoots(trace.BuildTrees(records), trace.PhaseMeshRound)
	if len(rounds) != 1 {
		t.Fatalf("got %d mesh rounds, want 1", len(rounds))
	}
	foundPeer := false
	for _, child := range rounds[0].Root.Children {
		if child.Name == trace.PhaseMeshExchange && child.Note == "dp-1" {
			foundPeer = true
		}
	}
	if !foundPeer {
		t.Errorf("mesh round lacks a mesh.exchange child for dp-1: %+v", rounds[0].Root.Children)
	}
}

// TestEngineSpansHangUnderTheirCallers: the engine knows nothing of
// tracing; the decision point opens engine.select / engine.record /
// engine.merge around the plain engine calls. Names and parents are what
// digruber-trace and the benchmark's per-layer ledger key on: the
// request-path spans and the Exchange/Gossip handlers' merges are
// children of server.handle, and a gossip round's reply merge is a
// child of that peer's mesh.exchange span.
func TestEngineSpansHangUnderTheirCallers(t *testing.T) {
	for _, tc := range []struct {
		strategy DisseminationStrategy
		want     map[string]int // "span<parent" → count
	}{
		{UsageOnly, map[string]int{
			"engine.select<server.handle": 3, "engine.record<server.handle": 3,
			"engine.merge<server.handle": 1,
		}},
		{Gossip, map[string]int{
			"engine.select<server.handle": 3, "engine.record<server.handle": 3,
			"engine.merge<server.handle": 1, "engine.merge<mesh.exchange": 1,
		}},
	} {
		got := map[string]int{}
		var walk func(n *trace.Node)
		walk = func(n *trace.Node) {
			for _, c := range n.Children {
				if strings.HasPrefix(c.Name, "engine.") {
					got[c.Name+"<"+n.Name]++
				}
				walk(c)
			}
		}
		for _, tree := range trace.BuildTrees(runTracedScenarioWith(t, 7, tc.strategy)) {
			if strings.HasPrefix(tree.Root.Name, "engine.") {
				t.Errorf("%s: %s span has no parent", tc.strategy, tree.Root.Name)
			}
			walk(tree.Root)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: engine spans by parent = %v, want %v", tc.strategy, got, tc.want)
		}
	}
}

// TestStatusSurfacesConnLost: a client that times out and hangs up
// leaves the container's wasted work visible in the broker status.
func TestStatusSurfacesConnLost(t *testing.T) {
	clock := vtime.NewReal()
	mem := wire.NewMem()
	dp, err := New(Config{
		Name: "dp-cl", Addr: "dp-cl", Transport: mem, Clock: clock,
		Profile:          wire.StackProfile{Name: "slow", BaseOverhead: 300 * time.Millisecond, MaxConcurrent: 1},
		ExchangeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	dp.Engine().UpdateSites(testStatuses(50), clock.Now())
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()

	c, err := NewClient(ClientConfig{
		Name: "client-0", DPName: dp.Name(), DPNode: dp.Name(),
		DPAddr: dp.Addr(), Transport: mem, Clock: clock,
		Timeout:       50 * time.Millisecond,
		FallbackSites: []string{"fb"},
		RNG:           netsim.Stream(1, "t"),
	})
	if err != nil {
		t.Fatal(err)
	}
	dec := c.Schedule(testJob("j-lost"))
	if dec.Handled {
		t.Fatalf("decision handled despite 300ms container vs 50ms timeout: %+v", dec)
	}
	c.Close()

	deadline := time.Now().Add(5 * time.Second)
	for dp.Status().ConnLost == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("ConnLost never surfaced in status: %+v", dp.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	st := dp.Status()
	if st.ConnLost < 1 || st.Shed != 0 {
		t.Fatalf("status failure classes = %+v, want ConnLost>=1, Shed=0", st)
	}
}

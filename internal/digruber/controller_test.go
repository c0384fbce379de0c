package digruber

import (
	"fmt"
	"testing"
	"time"

	"digruber/internal/gruber"
	"digruber/internal/netsim"
	"digruber/internal/tsdb"
	"digruber/internal/vtime"
	"digruber/internal/wire"
)

// controllerRig is a Manual-clock fleet whose pressure signal the test
// drives directly through the controller's DemandSeries counter —
// every Evaluate is an explicit, deterministic step.
type controllerRig struct {
	t      *testing.T
	mem    *wire.Mem
	clock  *vtime.Manual
	reg    *tsdb.Registry
	ctl    *Controller
	demand *tsdb.Counter
}

// rigSignals reads half an offered request per second and member as
// pressure and permits idle only once the window holds none at all.
func rigSignals(window time.Duration) SignalThresholds {
	return SignalThresholds{DemandHighPerDP: 0.5, DemandLowPerDP: 0.01, Window: window}
}

func newControllerRig(t *testing.T, cfg ControllerConfig) *controllerRig {
	t.Helper()
	r := &controllerRig{
		t:     t,
		mem:   wire.NewMem(),
		clock: vtime.NewManual(epoch),
		reg:   tsdb.New(0),
	}
	statuses := testStatuses(100, 100)
	factory := func(idx int) (*DecisionPoint, error) {
		dp, err := New(Config{
			Name: fmt.Sprintf("dp-%d", idx), Addr: fmt.Sprintf("dp-%d", idx),
			Transport: r.mem, Clock: r.clock, Profile: wire.Instant(),
			ExchangeInterval: time.Hour, Metrics: r.reg,
		})
		if err != nil {
			return nil, err
		}
		dp.Engine().UpdateSites(statuses, r.clock.Now())
		if err := dp.Start(); err != nil {
			return nil, err
		}
		return dp, nil
	}
	first, err := factory(0)
	if err != nil {
		t.Fatal(err)
	}

	cfg.Clock = r.clock
	cfg.Factory = factory
	cfg.Metrics = r.reg
	cfg.DemandSeries = "clients/offered"
	r.demand = r.reg.Counter(cfg.DemandSeries)
	ctl, err := NewController(cfg, []*DecisionPoint{first})
	if err != nil {
		t.Fatal(err)
	}
	r.ctl = ctl
	t.Cleanup(func() {
		for _, dp := range ctl.Fleet() {
			dp.Stop()
		}
	})
	return r
}

// step advances one interval, optionally accrues offered requests at
// rate/s over it, samples the registry, and runs one Evaluate.
func (r *controllerRig) step(interval time.Duration, rate float64) (ControllerAction, error) {
	r.t.Helper()
	r.clock.Advance(interval)
	r.demand.Add(int64(rate * interval.Seconds()))
	r.reg.Sample(r.clock.Now())
	return r.ctl.Evaluate()
}

func fleetNames(ctl *Controller) []string {
	var out []string
	for _, dp := range ctl.Fleet() {
		out = append(out, dp.Name())
	}
	return out
}

func TestControllerScalesUpAndDown(t *testing.T) {
	iv := controllerInterval
	r := newControllerRig(t, ControllerConfig{
		MaxDPs:       3,
		ScaleUpAfter: 2, ScaleDownAfter: 3,
		UpCooldown: 2 * iv, DownCooldown: 3 * iv,
		DrainTimeout: time.Minute,
		Signals:      rigSignals(4 * iv),
	})

	// Warm-up sample so window rates have a baseline point.
	r.reg.Sample(r.clock.Now())

	// One pressured evaluation is not enough — hysteresis wants two.
	if act, err := r.step(iv, 2); err != nil || act != ActionNone {
		t.Fatalf("pass 1: act=%q err=%v, want none (streak 1/2)", act, err)
	}
	if act, err := r.step(iv, 2); err != nil || act != ActionScaleUp {
		t.Fatalf("pass 2: act=%q err=%v, want scale-up", act, err)
	}
	if got := fleetNames(r.ctl); len(got) != 2 || got[1] != "dp-1" {
		t.Fatalf("fleet after scale-up = %v, want [dp-0 dp-1]", got)
	}
	// Symmetric mesh: both members see each other.
	for i, dp := range r.ctl.Fleet() {
		if peers := dp.Peers(); len(peers) != 1 {
			t.Fatalf("member %d peers = %v, want exactly one", i, peers)
		}
	}
	if len(r.ctl.Deployments()) != 1 {
		t.Fatal("deployment not logged")
	}

	// Still pressured, but inside UpCooldown (2 intervals): no action on
	// the first post-scale pass even though the streak rebuilds.
	if act, _ := r.step(iv, 2); act != ActionNone {
		t.Fatalf("cooldown pass: act=%q, want none", act)
	}
	// Cooldown expired, streak rebuilt: the next pressured pass scales.
	if act, err := r.step(iv, 2); err != nil || act != ActionScaleUp {
		t.Fatalf("post-cooldown pass: act=%q err=%v, want scale-up", act, err)
	}
	if got := len(r.ctl.Fleet()); got != 3 {
		t.Fatalf("fleet size = %d, want 3", got)
	}

	// Load vanishes. Idle needs the window rate to read zero, then
	// ScaleDownAfter consecutive idle passes past DownCooldown. The
	// 4-interval window still holds old increments for a few passes.
	var downAt int
	for i := 1; i <= 12; i++ {
		act, err := r.step(iv, 0)
		if err != nil {
			t.Fatalf("idle pass %d: %v", i, err)
		}
		if act == ActionScaleDown {
			downAt = i
			break
		}
	}
	if downAt == 0 {
		t.Fatal("controller never scaled down after load vanished")
	}
	// LIFO: the newest member (dp-2) drained and retired; survivors no
	// longer list it as a peer.
	got := fleetNames(r.ctl)
	if len(got) != 2 || got[0] != "dp-0" || got[1] != "dp-1" {
		t.Fatalf("fleet after scale-down = %v, want [dp-0 dp-1]", got)
	}
	for _, dp := range r.ctl.Fleet() {
		for _, p := range dp.Peers() {
			if p == "dp-2" {
				t.Fatalf("%s still lists retired dp-2 as a peer", dp.Name())
			}
		}
	}
	if len(r.ctl.Retirements()) != 1 {
		t.Fatal("retirement not logged")
	}

	// The metrics plane saw it all.
	if v, _ := r.reg.Latest("fleet/scale_ups"); v.V != 2 {
		t.Fatalf("scale_ups = %v, want 2", v.V)
	}
	if n := len(r.ctl.Fleet()); n != 2 {
		t.Fatalf("fleet size = %d, want 2", n)
	}
}

func TestControllerScaleDownRespectsMinAndMax(t *testing.T) {
	iv := controllerInterval
	r := newControllerRig(t, ControllerConfig{
		MaxDPs:       1,
		ScaleUpAfter: 1, ScaleDownAfter: 1,
		UpCooldown: iv / 2, DownCooldown: iv / 2,
		Signals: rigSignals(4 * iv),
	})
	r.reg.Sample(r.clock.Now())

	// Pressure with the fleet already at MaxDPs: no action.
	if act, err := r.step(iv, 2); err != nil || act != ActionNone {
		t.Fatalf("at max: act=%q err=%v, want none", act, err)
	}
	// Idle with the fleet at its floor of one point: no action either.
	for i := 0; i < 6; i++ {
		if act, err := r.step(iv, 0); err != nil || act != ActionNone {
			t.Fatalf("at min, pass %d: act=%q err=%v, want none", i, act, err)
		}
	}
	if got := len(r.ctl.Fleet()); got != 1 {
		t.Fatalf("fleet size = %d, want pinned at 1", got)
	}
}

// A drain that cannot finish (victim wedged by an unreachable ghost
// peer holding unflushed records) must abort: the evaluation reports
// ActionDrainAbort, the fleet keeps its size, and the victim serves on.
func TestControllerDrainAbortKeepsVictim(t *testing.T) {
	iv := controllerInterval
	r := newControllerRig(t, ControllerConfig{
		MaxDPs:       2,
		ScaleUpAfter: 1, ScaleDownAfter: 1,
		UpCooldown: iv / 2, DownCooldown: iv / 2,
		DrainTimeout: time.Second,
		Signals:      rigSignals(4 * iv),
	})
	r.reg.Sample(r.clock.Now())

	if act, err := r.step(iv, 2); err != nil || act != ActionScaleUp {
		t.Fatalf("scale-up: act=%q err=%v", act, err)
	}
	victim := r.ctl.Fleet()[1]

	// Wedge the victim: a local record plus a peer that never answers.
	victim.Engine().RecordDispatch(gruber.Dispatch{JobID: "wedge", Site: "site-000", CPUs: 1, Runtime: time.Hour, At: r.clock.Now()})
	victim.AddPeer("ghost", "ghost", "ghost-addr")

	// Age the offered requests out of the window; these passes still
	// read a nonzero rate (not idle, and the fleet is at MaxDPs) and take
	// no action.
	for i := 0; i < 3; i++ {
		if act, err := r.step(iv, 0); err != nil || act != ActionNone {
			t.Fatalf("draining-window pass %d: act=%q err=%v", i, act, err)
		}
	}

	// The next idle pass attempts the scale-down and wedges inside the
	// victim's Drain; under the Manual clock its flush retries sleep in
	// virtual time, so burn the drain budget from a concurrent advancer
	// until the abort surfaces.
	r.clock.Advance(iv)
	r.reg.Sample(r.clock.Now())
	type result struct {
		act ControllerAction
		err error
	}
	ch := make(chan result, 1)
	go func() {
		a, e := r.ctl.Evaluate()
		ch <- result{a, e}
	}()
	var out result
	for done := false; !done; {
		select {
		case out = <-ch:
			done = true
		default:
			r.clock.Advance(100 * time.Millisecond)
			time.Sleep(time.Millisecond)
		}
	}
	if out.act != ActionDrainAbort || out.err == nil {
		t.Fatalf("wedged scale-down: act=%q err=%v, want drain-abort with error", out.act, out.err)
	}
	if got := len(r.ctl.Fleet()); got != 2 {
		t.Fatalf("fleet size after abort = %d, want 2 (victim kept)", got)
	}
	if st := lifecycleState(victim); st != StateServing {
		t.Fatalf("victim state after abort = %q, want serving", st)
	}
	r.reg.Sample(r.clock.Now())
	if v, _ := r.reg.Latest("fleet/drain_aborts"); v.V != 1 {
		t.Fatalf("drain_aborts = %v, want 1", v.V)
	}
}

// Rebalance: managed clients spread round-robin as the fleet grows, and
// are pulled off a victim before its drain begins.
func TestControllerRebalancesClients(t *testing.T) {
	iv := controllerInterval
	r := newControllerRig(t, ControllerConfig{
		MaxDPs:       2,
		ScaleUpAfter: 1, ScaleDownAfter: 2,
		UpCooldown: iv / 2, DownCooldown: iv / 2,
		DrainTimeout: time.Minute,
		Signals:      rigSignals(2 * iv),
	})
	var clients []*Client
	for i := 0; i < 4; i++ {
		c, err := NewClient(ClientConfig{
			Name: fmt.Sprintf("c%d", i), DPName: "dp-0", DPNode: "dp-0", DPAddr: "dp-0",
			Transport: r.mem, Clock: r.clock, Timeout: time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		clients = append(clients, c)
	}
	r.ctl.ManageClients(clients)
	r.reg.Sample(r.clock.Now())

	if act, err := r.step(iv, 2); err != nil || act != ActionScaleUp {
		t.Fatalf("scale-up: act=%q err=%v", act, err)
	}
	byDP := map[string]int{}
	for _, c := range clients {
		byDP[c.DPName()]++
	}
	if byDP["dp-0"] != 2 || byDP["dp-1"] != 2 {
		t.Fatalf("client spread after scale-up = %v, want 2/2", byDP)
	}

	// Drain dp-1 away again; every client must end up back on dp-0.
	for i := 0; i < 12; i++ {
		if act, err := r.step(iv, 0); err != nil {
			t.Fatal(err)
		} else if act == ActionScaleDown {
			break
		}
	}
	if got := len(r.ctl.Fleet()); got != 1 {
		t.Fatalf("fleet size = %d, want 1", got)
	}
	for _, c := range clients {
		if c.DPName() != "dp-0" {
			t.Fatalf("client %s still bound to %s after retirement", c.cfg.Name, c.DPName())
		}
	}
}

func TestControllerValidation(t *testing.T) {
	clock := vtime.NewReal()
	factory := func(int) (*DecisionPoint, error) { return nil, nil }
	first := &DecisionPoint{}
	for name, c := range map[string]struct {
		cfg     ControllerConfig
		initial []*DecisionPoint
	}{
		"empty config": {ControllerConfig{}, []*DecisionPoint{first}},
		"no registry":  {ControllerConfig{Clock: clock, Factory: factory}, []*DecisionPoint{first}},
		"empty fleet":  {ControllerConfig{Clock: clock, Factory: factory, Metrics: tsdb.New(0)}, nil},
	} {
		if _, err := NewController(c.cfg, c.initial); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// saturationRig is a Real-clock fleet of 1-worker decision points whose
// registry is never sampled: every window signal reads zero, so the
// members' own saturation verdicts are the only live signal.
func saturationRig(t *testing.T, prefix string, maxDPs int) (*Controller, []*Client) {
	t.Helper()
	clock := vtime.NewReal()
	mem := wire.NewMem()
	statuses := testStatuses(100, 100, 100)
	slow := wire.StackProfile{Name: "slow", BaseOverhead: 100 * time.Millisecond, MaxConcurrent: 1, QueueLimit: 128}
	factory := func(idx int) (*DecisionPoint, error) {
		name := fmt.Sprintf("%s-%d", prefix, idx)
		dp, err := New(Config{
			Name: name, Addr: name, Transport: mem, Clock: clock, Profile: slow,
			Strategy: UsageOnly, ExchangeInterval: time.Hour,
		})
		if err != nil {
			return nil, err
		}
		dp.Engine().UpdateSites(statuses, clock.Now())
		return dp, dp.Start()
	}
	first, err := factory(0)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewController(ControllerConfig{
		Clock: clock, Factory: factory, Metrics: tsdb.New(0),
		MaxDPs: maxDPs, ScaleUpAfter: 1,
	}, []*DecisionPoint{first})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, dp := range ctl.Fleet() {
			dp.Stop()
		}
	})

	var clients []*Client
	for i := 0; i < 8; i++ {
		c, err := NewClient(ClientConfig{
			Name: fmt.Sprintf("%s-client-%d", prefix, i), DPName: first.Name(), DPNode: first.Name(), DPAddr: first.Addr(),
			Transport: mem, Clock: clock, Timeout: 2 * time.Second,
			FallbackSites: []string{"site-000"},
			RNG:           netsim.Stream(int64(i), "ctl.saturation"),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		clients = append(clients, c)
	}
	ctl.ManageClients(clients)

	// Saturate the first point: concurrent schedules at a 1-worker stack.
	done := make(chan struct{})
	t.Cleanup(func() { close(done) })
	for _, c := range clients {
		go func(c *Client) {
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				c.Schedule(testJob(fmt.Sprintf("%s-%d", c.cfg.Name, i)))
			}
		}(c)
	}
	return ctl, clients
}

// awaitSaturated polls dp's own verdict until it reads saturated.
func awaitSaturated(t *testing.T, dp *DecisionPoint) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if dp.Status().Saturated {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("%s never reported saturation under the burst", dp.Name())
}

// The Section 5 loop end to end: a member's own saturation verdict is
// all the pressure there is, and one evaluation that hears it deploys a
// point, meshes it both ways and hands it half the clients.
func TestControllerDeploysUnderSaturation(t *testing.T) {
	ctl, clients := saturationRig(t, "dp", 3)
	deployed := false
	for i := 0; i < 100 && !deployed; i++ {
		act, err := ctl.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		if deployed = act == ActionScaleUp; !deployed {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if !deployed {
		t.Fatal("controller never deployed a new decision point under saturation")
	}
	// Still saturated or not, the cooldown holds the fleet at one
	// deployment.
	if act, err := ctl.Evaluate(); err != nil || act != ActionNone {
		t.Fatalf("evaluation inside the cooldown: act=%q err=%v, want none", act, err)
	}
	fleet := ctl.Fleet()
	if len(fleet) != 2 {
		t.Fatalf("fleet = %d, want 2", len(fleet))
	}
	if len(ctl.Deployments()) != 1 {
		t.Fatal("deployment not logged")
	}
	rebound := 0
	for _, c := range clients {
		if c.DPName() == "dp-1" {
			rebound++
		}
	}
	if rebound != 4 {
		t.Fatalf("rebound clients = %d, want 4 of 8", rebound)
	}
	if peers := fleet[1].Peers(); len(peers) != 1 || peers[0] != "dp-0" {
		t.Fatalf("new DP peers = %v", peers)
	}
	if peers := fleet[0].Peers(); len(peers) != 1 || peers[0] != "dp-1" {
		t.Fatalf("original DP peers = %v", peers)
	}
}

func TestControllerRespectsMaxDPs(t *testing.T) {
	ctl, _ := saturationRig(t, "cap-dp", 1)
	awaitSaturated(t, ctl.Fleet()[0])
	for i := 0; i < 5; i++ {
		if act, err := ctl.Evaluate(); err != nil || act != ActionNone {
			t.Fatalf("saturated at MaxDPs: act=%q err=%v, want none", act, err)
		}
	}
	if got := len(ctl.Fleet()); got != 1 {
		t.Fatalf("controller grew past MaxDPs: fleet = %d", got)
	}
}

// Start hands Evaluate to the clock's ticker, one pass a minute,
// and Stop returns with the loop gone: no later tick evaluates.
func TestControllerStartStopRunsOnTicker(t *testing.T) {
	iv := controllerInterval
	r := newControllerRig(t, ControllerConfig{
		MaxDPs: 4, ScaleUpAfter: 1, UpCooldown: iv / 2,
		Signals: rigSignals(4 * iv),
	})
	r.reg.Sample(r.clock.Now())
	// tick accrues pressure and samples it mid-interval, so the sample is
	// in the registry before the tick that ends the interval fires.
	tick := func() {
		r.clock.Advance(iv / 2)
		r.demand.Add(120)
		r.reg.Sample(r.clock.Now())
		r.clock.Advance(iv / 2)
	}

	r.ctl.Start()
	r.ctl.Start() // idempotent: still one ticker, one loop
	for want := int64(1); want <= 2; want++ {
		tick()
		// scale_ups moves last in a scale-up, so the pass is over once it
		// reads want and the clock is free to move again.
		for i := 0; r.ctl.scaleUps.Value() != want; i++ {
			if i == 5000 {
				t.Fatalf("tick %d: scale_ups = %d, the started controller never evaluated", want, r.ctl.scaleUps.Value())
			}
			time.Sleep(time.Millisecond)
		}
	}

	r.ctl.Stop()
	r.ctl.Stop()
	tick()
	tick()
	if got := len(r.ctl.Fleet()); got != 3 {
		t.Fatalf("fleet = %d after Stop, want it left at 3", got)
	}
}

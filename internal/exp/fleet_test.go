package exp

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"digruber/internal/digruber"
	"digruber/internal/grid"
	"digruber/internal/tsdb"
	"digruber/internal/vtime"
	"digruber/internal/wire"
)

// testFleetSpec is a small fleet on the given clock: points t-dp-<i>
// listening on t/t-dp-<i>, clients t-client-<i>.
func testFleetSpec(clock vtime.Clock, points, clients int) FleetSpec {
	sites := idleSites("t-site-%d", 2, 100)
	return FleetSpec{
		Clock: clock, Points: points, Clients: clients,
		Sites: func() []grid.Status { return sites },
		Point: func(i int, c *digruber.Config) {
			c.Name = fmt.Sprintf("t-dp-%d", i)
			c.Addr = "t/" + c.Name
		},
		Client: func(i int, c *digruber.ClientConfig) { c.Name = fmt.Sprintf("t-client-%d", i) },
	}
}

// assertNothingListens fails if any of the fleet's point addresses is
// still bound on mem.
func assertNothingListens(t *testing.T, mem *wire.Mem, points int) {
	t.Helper()
	for i := 0; i < points; i++ {
		addr := fmt.Sprintf("t/t-dp-%d", i)
		l, err := mem.Listen(addr)
		if err != nil {
			t.Fatalf("%s is still bound: %v", addr, err)
		}
		l.Close()
	}
}

func TestNewFleetFailingHalfWayLeavesNothingListening(t *testing.T) {
	mem := wire.NewMem()
	spec := testFleetSpec(vtime.NewManual(Epoch), 3, 2)
	squatter, err := mem.Listen("t/t-dp-1")
	if err != nil {
		t.Fatal(err)
	}
	if f, err := newFleet(spec, mem); err == nil {
		f.Close()
		t.Fatal("newFleet succeeded although point 1's address was taken")
	}
	squatter.Close()
	// Point 0 had started before point 1 failed to bind; it must be gone.
	assertNothingListens(t, mem, 3)

	f, err := newFleet(spec, mem)
	if err != nil {
		t.Fatalf("the same spec right after the failure: %v", err)
	}
	if got := len(f.Points()); got != 3 {
		t.Fatalf("%d points, want 3", got)
	}
	if dec := f.Submit(1, "job-0", "atlas", time.Minute); !dec.Handled {
		t.Fatalf("fleet does not serve: %+v", dec)
	}
	f.Close()
	assertNothingListens(t, mem, 3)
}

func TestFleetCloseIsIdempotentAndNamesAreScopedToTheFleet(t *testing.T) {
	spec := testFleetSpec(vtime.NewManual(Epoch), 2, 1)
	first, err := NewFleet(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Same names, same addresses, its own transport: no collision even
	// while the first fleet is up.
	second, err := NewFleet(spec)
	if err != nil {
		t.Fatalf("second fleet with the same names: %v", err)
	}
	first.Close()
	first.Close()
	if dec := second.Submit(0, "job-0", "atlas", time.Minute); !dec.Handled {
		t.Fatalf("closing one fleet disturbed the other: %+v", dec)
	}
	second.Close()
	if _, err := second.Deploy(2); err == nil {
		t.Fatal("Deploy on a closed fleet succeeded")
	}
}

func TestFleetSteppingNeedsAManualClock(t *testing.T) {
	f, err := NewFleet(testFleetSpec(vtime.NewScaled(Epoch, 100), 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Quiesce(); err == nil {
		t.Error("Quiesce on a Scaled clock succeeded")
	}
	if err := f.Tick(f.Points(), true); err == nil {
		t.Error("Tick on a Scaled clock succeeded")
	}
	if rounds := f.Points()[0].ExchangeRounds(); rounds != 0 {
		t.Errorf("rejected Tick still ran %d exchange round(s)", rounds)
	}
}

func TestQuiesceNamesTheStuckPoint(t *testing.T) {
	clock := vtime.NewManual(Epoch)
	spec := testFleetSpec(clock, 2, 2)
	name := spec.Point
	spec.Point = func(i int, c *digruber.Config) {
		name(i, c)
		if i == 1 {
			// A stack with service time: on a Manual clock the request
			// stays in flight until somebody advances the clock.
			c.Profile = wire.GT3()
		}
	}
	f, err := NewFleet(spec)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	f.quiesceWait = 50 * time.Millisecond

	done := make(chan digruber.Decision, 1)
	go func() { done <- f.Submit(1, "job-stuck", "atlas", time.Minute) }()
	stuck := f.Points()[1]
	for deadline := time.Now().Add(5 * time.Second); stuck.Status().InFlight == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the request never reached t-dp-1")
		}
		time.Sleep(time.Millisecond)
	}

	err = f.Quiesce()
	if err == nil {
		t.Fatal("Quiesce succeeded with a request in flight")
	}
	if !strings.Contains(err.Error(), "t-dp-1") || !strings.Contains(err.Error(), "1 in flight") {
		t.Fatalf("error does not name the stuck point and its load: %v", err)
	}

	// Let the service time elapse; the fleet then settles.
	for released := false; !released; {
		clock.Advance(time.Minute)
		select {
		case <-done:
			released = true
		case <-time.After(time.Millisecond):
		}
	}
	f.quiesceWait = quiesceWait
	if err := f.Quiesce(); err != nil {
		t.Fatalf("after the request completed: %v", err)
	}
}

func TestFleetDeployUnderControllerLeavesNothingRunning(t *testing.T) {
	mem := wire.NewMem()
	reg := tsdb.New(0)
	spec := testFleetSpec(vtime.NewManual(Epoch), 1, 2)
	spec.Metrics = reg
	f, err := newFleet(spec, mem)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	offered := reg.Counter("clients/offered")
	ctl, err := digruber.NewController(digruber.ControllerConfig{
		Clock: spec.Clock, Factory: f.Deploy, Metrics: reg,
		Interval: time.Minute, MaxDPs: 2, ScaleUpAfter: 1, ScaleDownAfter: 1,
		UpCooldown: time.Minute, DownCooldown: time.Minute, DrainTimeout: time.Minute,
		DemandSeries: "clients/offered",
		Signals:      digruber.SignalThresholds{DemandHighPerDP: 0.5, DemandLowPerDP: 0.01, Window: 2 * time.Minute},
	}, f.Points())
	if err != nil {
		t.Fatal(err)
	}
	ctl.ManageClients(f.Clients())

	// stepUntil ticks the fleet, accruing offered requests at perMinute,
	// until the controller takes the wanted action.
	stepUntil := func(want digruber.ControllerAction, perMinute int64) {
		t.Helper()
		for step := 0; step < 20; step++ {
			offered.Add(perMinute)
			if err := f.Tick(ctl.Fleet(), true); err != nil {
				t.Fatal(err)
			}
			act, err := ctl.Evaluate()
			if err != nil {
				t.Fatal(err)
			}
			if act == want {
				return
			}
		}
		t.Fatalf("controller never reached %q", want)
	}
	stepUntil(digruber.ActionScaleUp, 120)
	if got := len(f.Points()); got != 2 {
		t.Fatalf("fleet knows %d points after the scale-up, want 2", got)
	}
	if dec := f.Submit(1, "job-on-deployed", "atlas", time.Minute); !dec.Handled {
		t.Fatalf("deployed point does not serve: %+v", dec)
	}
	stepUntil(digruber.ActionScaleDown, 0)
	if got := len(ctl.Fleet()); got != 1 {
		t.Fatalf("controller still serves %d points after the drain, want 1", got)
	}

	f.Close()
	assertNothingListens(t, mem, 2)
}

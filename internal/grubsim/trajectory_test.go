package grubsim

import (
	"testing"
	"time"
)

// The recorded deployment instants must agree with the scalar outcome
// the simulator reports: provisioning is add-only, so the fleet steps up
// by one at each AddTime, in order, from its initial size to FinalDPs.
func TestFleetTrajectoryMatchesSimulation(t *testing.T) {
	p := small(1)
	p.Dynamic = true
	p.ResponseBound = 2 * time.Second
	p.MonitorInterval = 30 * time.Second
	p.Duration = 30 * time.Minute
	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if got := 1 + len(res.AddTimes); got != res.FinalDPs || res.AddedDPs != len(res.AddTimes) {
		t.Fatalf("1 + %d deployments, AddedDPs %d, FinalDPs %d", len(res.AddTimes), res.AddedDPs, res.FinalDPs)
	}
	for i := 1; i < len(res.AddTimes); i++ {
		if res.AddTimes[i] < res.AddTimes[i-1] {
			t.Fatalf("deployment instants out of order: %v", res.AddTimes)
		}
	}
	if n := len(res.AddTimes); n > 0 && res.AddTimes[n-1] > p.Duration {
		t.Fatalf("deployment at %v after the run's end %v", res.AddTimes[n-1], p.Duration)
	}
}

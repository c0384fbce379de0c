package digruber

import (
	"fmt"
	"sync"
	"testing"

	"digruber/internal/vtime"
)

// TestMembershipChurnStress hammers one broker with concurrent
// membership changes, exchanges, status polls and client traffic. It
// asserts nothing beyond "no race, no deadlock, still serving" — run it
// under -race (the CI race job selects it by name).
func TestMembershipChurnStress(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 3, clock, testStatuses(100, 100))
	target := h.dps[0]
	c := h.client(0, 0, nil)

	const iters = 150
	var wg sync.WaitGroup
	wg.Add(4)
	go func() { // membership churn: transient peers come and go
		defer wg.Done()
		for i := 0; i < iters; i++ {
			name := fmt.Sprintf("churn-%d", i%4)
			target.AddPeer(name, name, h.dps[1].Addr())
			target.RemovePeer(name)
		}
	}()
	go func() { // exchange rounds against whatever the peer set is
		defer wg.Done()
		for i := 0; i < iters; i++ {
			target.ExchangeNow()
		}
	}()
	go func() { // status polls
		defer wg.Done()
		for i := 0; i < iters; i++ {
			_ = target.Status()
		}
	}()
	go func() { // client traffic
		defer wg.Done()
		for i := 0; i < iters; i++ {
			_ = c.Schedule(testJob(fmt.Sprintf("churn-job-%d", i)))
		}
	}()
	wg.Wait()

	// The transient peers are gone and the broker still answers.
	st := target.Status()
	for _, p := range st.Peers {
		if len(p.Name) >= 5 && p.Name[:5] == "churn" {
			t.Fatalf("transient peer %q survived the churn", p.Name)
		}
	}
	if dec := c.Schedule(testJob("churn-final")); !dec.Handled {
		t.Fatal("broker stopped handling after membership churn")
	}
}

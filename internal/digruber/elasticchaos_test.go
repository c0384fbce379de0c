package digruber

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"digruber/internal/gruber"
	"digruber/internal/netsim"
	"digruber/internal/vtime"
)

// drainChaosDigest is the replayable fingerprint of a drain-vs-partition
// race: only outcome-level facts (never step timings, which depend on
// goroutine interleaving) so two runs of the same scenario compare equal.
type drainChaosDigest struct {
	DrainErr     string
	VictimState  string
	QueryHandled bool
	SecondDrain  string
	FinalState   string
	PeerSiteFree int
}

// runDrainPartitionScenario races a scale-down against a fault window:
// dp-0 (the victim, holding one unflushed dispatch record) is drained
// while its only peer dp-1 is crashed from the start of the run until
// healAfter. With healAfter inside the drain deadline the drain must
// ride out the partition and complete; with healAfter beyond it the
// drain must abort back to serving without stranding clients, and a
// later drain (after the heal) must complete.
func runDrainPartitionScenario(t *testing.T, healAfter, drainTimeout time.Duration) drainChaosDigest {
	t.Helper()
	clock := vtime.NewManual(epoch)
	h := newHarness(t, 2, clock, testStatuses(100))
	victim, peer := h.dps[0], h.dps[1]

	// One dispatch record the victim must hand off before it may stop.
	victim.Engine().RecordDispatch(gruber.Dispatch{
		JobID: "chaos-wedge", Site: "site-000", CPUs: 1,
		Runtime: time.Hour, At: clock.Now(),
	})

	faults := netsim.NewFaultPlane()
	faults.CrashNode(peer.Name(), epoch, epoch.Add(healAfter))
	peerDown := false
	applyFaults := func() {
		d := faults.Down(peer.Name(), clock.Now())
		switch {
		case d && !peerDown:
			peer.Crash()
			peerDown = true
		case !d && peerDown:
			if err := peer.Restart(); err != nil {
				t.Fatalf("restart %s: %v", peer.Name(), err)
			}
			peerDown = false
		}
	}
	applyFaults() // the partition is already open when the drain starts

	// The drain blocks in Manual-clock sleeps; an advancer goroutine
	// walks virtual time (applying the fault schedule at each step) until
	// the drain returns.
	drain := func(timeout time.Duration) string {
		done := make(chan string, 1)
		go func() {
			if err := victim.Drain(timeout); err != nil {
				done <- err.Error()
				return
			}
			done <- ""
		}()
		for {
			select {
			case msg := <-done:
				return msg
			default:
				clock.Advance(500 * time.Millisecond)
				applyFaults()
				time.Sleep(time.Millisecond)
			}
		}
	}

	digest := drainChaosDigest{
		DrainErr: drain(drainTimeout),
	}
	digest.VictimState = lifecycleState(victim)

	if digest.VictimState == StateServing {
		// Abort path: the victim must still answer clients.
		c := h.client(0, 0, nil)
		dec := c.Schedule(testJob("chaos-post-abort"))
		digest.QueryHandled = dec.Handled
		// Walk virtual time past the fault window so the peer heals,
		// then the retirement must go through.
		for faults.Down(peer.Name(), clock.Now()) {
			clock.Advance(time.Second)
		}
		applyFaults()
		digest.SecondDrain = drain(time.Minute)
	}
	digest.FinalState = lifecycleState(victim)
	digest.PeerSiteFree = peer.Engine().EstFreeCPUs("site-000")
	return digest
}

// TestDrainCompletesAfterPartitionHeals: the fault window closes inside
// the drain deadline, so the drain rides it out — the victim retires and
// the peer ends up owning the flushed dispatch record.
func TestDrainCompletesAfterPartitionHeals(t *testing.T) {
	d := runDrainPartitionScenario(t, 30*time.Second, 5*time.Minute)
	if d.DrainErr != "" {
		t.Fatalf("drain failed despite heal inside the deadline: %s", d.DrainErr)
	}
	if d.FinalState != StateStopped {
		t.Fatalf("victim state %q, want stopped", d.FinalState)
	}
	if d.PeerSiteFree != 99 {
		t.Fatalf("peer view free=%d, want 99 — the drained record was lost", d.PeerSiteFree)
	}
}

// TestDrainAbortsWhenPartitionOutlastsDeadline: the fault window covers
// the whole drain deadline, so the drain must abort back to serving
// (clients keep getting answers) and a post-heal drain completes.
func TestDrainAbortsWhenPartitionOutlastsDeadline(t *testing.T) {
	d := runDrainPartitionScenario(t, 5*time.Minute, time.Minute)
	if d.DrainErr == "" {
		t.Fatal("drain completed while its only peer was partitioned away")
	}
	if d.VictimState != StateServing {
		t.Fatalf("victim state %q after abort, want serving", d.VictimState)
	}
	if !d.QueryHandled {
		t.Fatal("client request not handled after drain abort — clients stranded")
	}
	if d.SecondDrain != "" {
		t.Fatalf("post-heal drain failed: %s", d.SecondDrain)
	}
	if d.FinalState != StateStopped {
		t.Fatalf("final victim state %q, want stopped", d.FinalState)
	}
	// Two records crossed: the pre-drain wedge and the post-abort client
	// dispatch. Neither may be lost in the retirement.
	if d.PeerSiteFree != 98 {
		t.Fatalf("peer view free=%d, want 98 — a drained record was lost", d.PeerSiteFree)
	}
}

// TestDrainPartitionChaosDeterministic: both races are pure functions of
// the schedule — outcome digests replay equal run over run, whatever the
// real-time interleaving of the advancer and the drain goroutine.
func TestDrainPartitionChaosDeterministic(t *testing.T) {
	for _, tc := range []struct {
		name          string
		heal, timeout time.Duration
	}{
		{"heal-inside-deadline", 30 * time.Second, 5 * time.Minute},
		{"partition-outlasts-deadline", 5 * time.Minute, time.Minute},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first := runDrainPartitionScenario(t, tc.heal, tc.timeout)
			second := runDrainPartitionScenario(t, tc.heal, tc.timeout)
			if !reflect.DeepEqual(first, second) {
				t.Fatalf("chaos runs diverged:\n first %+v\nsecond %+v", first, second)
			}
		})
	}
}

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

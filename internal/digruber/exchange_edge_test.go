package digruber

import (
	"sync"
	"testing"
	"time"

	"digruber/internal/vtime"
)

// Edge-path coverage for the round skeleton (syncNow): the nil-client skip (a link whose
// client is gone because Stop or RemovePeer got there first) and the
// dead-peer probe-backoff skip (dead and not yet due for a probe).

// TestExchangeSkipsNilClientLinks: a stopped decision point's links have
// no clients; a round over them must skip every link and send nothing
// rather than dereference nil.
func TestExchangeSkipsNilClientLinks(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 2, clock, testStatuses(50))
	dispatchAt(h, 0, "nil-1")
	h.dps[0].Stop() // nils every peer link's client
	if sent := h.dps[0].syncNow(false); sent != 0 {
		t.Fatalf("stopped point sent %d records, want 0", sent)
	}
	// force must not override the nil-client skip either — there is no
	// client to force.
	if sent := h.dps[0].syncNow(true); sent != 0 {
		t.Fatalf("forced round on stopped point sent %d records, want 0", sent)
	}
	if got := h.dps[1].Engine().Stats().RemoteDispatches; got != 0 {
		t.Fatalf("peer received %d records from a stopped point", got)
	}
}

// TestExchangeStopRaceIsSafe races Stop against in-flight rounds: the
// "Stop raced us" re-check inside the send loop must keep the round
// from touching a just-nilled client. Interleaving is scheduler-driven;
// the -race job gives this teeth.
func TestExchangeStopRaceIsSafe(t *testing.T) {
	clock := vtime.NewReal()
	for i := 0; i < 20; i++ {
		h := newHarness(t, 3, clock, testStatuses(50))
		dispatchAt(h, 0, "race-1")
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.dps[0].ExchangeNow()
		}()
		h.dps[0].Stop()
		wg.Wait()
	}
}

// TestExchangeSkipsDeadPeerUntilProbeDue: a dead link sits out rounds
// until its probe time arrives; force overrides the wait (the drain
// flush's mode).
func TestExchangeSkipsDeadPeerUntilProbeDue(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 2, clock, testStatuses(50))
	dispatchAt(h, 0, "dead-1")

	// White-box: declare the link dead with a probe an hour out.
	h.dps[0].mu.Lock()
	l := h.dps[0].peers["dp-1"]
	l.state = peerDead
	l.fails = deadAfterFails
	l.nextProbe = clock.Now().Add(time.Hour)
	h.dps[0].mu.Unlock()

	if sent := h.dps[0].ExchangeNow(); sent != 0 {
		t.Fatalf("round sent %d records to a dead peer before its probe was due", sent)
	}
	if got := h.dps[1].Engine().Stats().RemoteDispatches; got != 0 {
		t.Fatalf("dead-and-not-due peer received %d records", got)
	}

	// force ignores the backoff entirely.
	if sent := h.dps[0].syncNow(true); sent != 1 {
		t.Fatalf("forced round sent %d records, want 1", sent)
	}
	if got := h.dps[1].Engine().Stats().RemoteDispatches; got != 1 {
		t.Fatalf("peer received %d records after forced probe, want 1", got)
	}

	// The successful forced contact revived the link: the regular path
	// reaches it again (nothing new to send, but the skip is gone).
	h.dps[0].mu.Lock()
	state := h.dps[0].peers["dp-1"].state
	h.dps[0].mu.Unlock()
	if state != peerAlive {
		t.Fatalf("peer state %v after successful forced exchange, want alive", state)
	}
}

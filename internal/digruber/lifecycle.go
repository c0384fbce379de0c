package digruber

import (
	"fmt"
	"time"
)

// Lifecycle: a decision point is serving from Start until Stop. Drain is
// the graceful path between them — the paper's Section 5 reconfiguration
// needs retiring brokers to leave the fleet without dropping the work
// they hold, which a bare Stop (or a Crash) cannot promise.
//
//	serving ──Drain──▶ draining ──flush verified──▶ stopped
//	   ▲                  │
//	   └──── abort ◀──────┘ (settle/flush deadline exceeded)
//
// While draining, the point refuses new scheduling work (Query/Schedule
// answer ErrDraining so clients fail over), but keeps accepting Reports
// (the tail of interactions already in flight) and all mesh/monitoring
// traffic (Exchange, Status, Snapshot) — peers still need its records
// and monitors still need to see it. Crash skips all of this: it models
// the process dying, state and obligations included.

// isDraining reports whether the decision point is in its Draining
// lifecycle state.
func (dp *DecisionPoint) isDraining() bool {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	return dp.draining
}

// drainPollFloor/Ceil bound the settle/flush polling period derived from
// the drain deadline.
const (
	drainPollFloor = 10 * time.Millisecond
	drainPollCeil  = time.Second
)

// drainPoll picks the (virtual-time) polling period for a drain with the
// given deadline budget: 1% of the budget, clamped.
func drainPoll(timeout time.Duration) time.Duration {
	p := timeout / 100
	if p < drainPollFloor {
		p = drainPollFloor
	}
	if p > drainPollCeil {
		p = drainPollCeil
	}
	return p
}

// Drain retires the decision point gracefully within the given
// (virtual-time) budget:
//
//  1. Enter the Draining state: Query/Schedule refuse with ErrDraining
//     (clients fail over), Status advertises StateDraining.
//  2. Settle: wait for the service stack's in-flight and queued work to
//     reach zero, so nothing accepted is abandoned.
//  3. Final flush: run exchange rounds (force-probing even dead peers)
//     until every peer has acknowledged this engine's full local
//     dispatch log — verified against the exchange-cursor high-water
//     mark, not assumed from one successful round.
//  4. Stop.
//
// If settling or flushing exceeds the budget — in-flight work wedged, or
// a partition keeping a peer from acknowledging — the drain aborts back
// to serving and returns an error: a broker that cannot discharge its
// obligations keeps them, it does not strand them. The caller (normally
// the elastic Controller) decides whether to retry later.
//
// A Report arriving in the instant between the verified flush and the
// stop can still miss the last exchange; the Controller closes that
// window by rebinding the victim's clients away before draining.
func (dp *DecisionPoint) Drain(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 4 * dp.cfg.PeerTimeout
	}
	dp.mu.Lock()
	if !dp.started {
		dp.mu.Unlock()
		return fmt.Errorf("digruber: %s: drain of a stopped decision point", dp.cfg.Name)
	}
	if dp.draining {
		dp.mu.Unlock()
		return fmt.Errorf("digruber: %s: already draining", dp.cfg.Name)
	}
	dp.draining = true
	dp.mu.Unlock()
	dp.metrics.drains.Inc()

	deadline := dp.cfg.Clock.Now().Add(timeout)
	poll := drainPoll(timeout)

	// Settle. Refused Query/Schedule calls pass through the stack quickly;
	// what this waits out is genuinely accepted work.
	for {
		st := dp.serverStats()
		if st.InFlight == 0 && st.Queued == 0 && st.LaneInFlight == 0 && st.LaneQueued == 0 {
			break
		}
		if !dp.cfg.Clock.Now().Before(deadline) {
			return dp.abortDrain("in-flight work did not settle")
		}
		dp.cfg.Clock.Sleep(poll)
	}

	// Final flush, verified: every peer's acknowledged cursor must reach
	// the local log's high-water mark. One round is not enough evidence —
	// a call can fail against a partitioned peer — so this retries until
	// the cursors prove completeness or the budget runs out.
	for !dp.flushComplete() {
		dp.syncNow(true)
		if dp.flushComplete() {
			break
		}
		if !dp.cfg.Clock.Now().Before(deadline) {
			return dp.abortDrain("final flush not acknowledged by every peer")
		}
		dp.cfg.Clock.Sleep(poll)
	}

	dp.Stop()
	dp.metrics.retired.Inc()
	return nil
}

// abortDrain returns the decision point to serving and reports why.
func (dp *DecisionPoint) abortDrain(reason string) error {
	dp.mu.Lock()
	dp.draining = false
	dp.mu.Unlock()
	dp.metrics.drainAborts.Inc()
	return fmt.Errorf("digruber: %s: drain aborted: %s", dp.cfg.Name, reason)
}

// flushComplete reports whether every peer has acknowledged the local
// dispatch log in full — the drain protocol's exit condition for the
// final flush.
func (dp *DecisionPoint) flushComplete() bool {
	hi := dp.engine.LocalSeqHighWater()
	dp.mu.Lock()
	defer dp.mu.Unlock()
	//lint:allow mapiter -- conjunction over values; order-independent
	for _, l := range dp.peers {
		if l.lastSent < hi {
			return false
		}
	}
	return true
}

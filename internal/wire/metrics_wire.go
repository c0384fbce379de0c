package wire

import "sync/atomic"

// ClientMetrics counts calls and attempts across one or more Clients
// sharing it (a fleet of submission hosts, a decision point's peer
// links). All methods are safe on a nil receiver, so un-instrumented
// clients pay one nil check per call.
type ClientMetrics struct {
	calls     atomic.Int64 // logical calls (CallCtx invocations)
	attempts  atomic.Int64 // individual attempts, retries included
	throttled atomic.Int64 // retries denied by the retry budget

	// bytes ledgers payload bytes sent/received, per method (bytes.go).
	bytes byteBook
}

// NewClientMetrics returns an empty, shareable counter set.
func NewClientMetrics() *ClientMetrics { return &ClientMetrics{} }

func (m *ClientMetrics) onCall() {
	if m != nil {
		m.calls.Add(1)
	}
}

func (m *ClientMetrics) onAttempt() {
	if m != nil {
		m.attempts.Add(1)
	}
}

// onThrottle counts a retry the budget denied.
func (m *ClientMetrics) onThrottle() {
	if m != nil {
		m.throttled.Add(1)
	}
}

// ClientStats is a consistent-enough copy of the counters, for tests
// and status displays.
type ClientStats struct {
	Calls, Attempts, Throttled int64
}

// Stats returns the current counter values (zero for a nil receiver).
func (m *ClientMetrics) Stats() ClientStats {
	if m == nil {
		return ClientStats{}
	}
	return ClientStats{
		Calls:     m.calls.Load(),
		Attempts:  m.attempts.Load(),
		Throttled: m.throttled.Load(),
	}
}

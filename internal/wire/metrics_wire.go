package wire

import (
	"sync/atomic"
	"time"

	"digruber/internal/tsdb"
)

// ClientMetrics aggregates call outcomes across one or more Clients
// sharing it (a fleet of submission hosts, a decision point's peer
// links). All methods are safe on a nil receiver, so un-instrumented
// clients pay one nil check per call.
type ClientMetrics struct {
	calls     atomic.Int64 // logical calls (CallCtx invocations)
	attempts  atomic.Int64 // individual attempts, retries included
	retries   atomic.Int64
	throttled atomic.Int64 // retries denied by the retry budget
	ok        atomic.Int64
	timeout   atomic.Int64
	overload  atomic.Int64
	refused   atomic.Int64
	lost      atomic.Int64
	expired   atomic.Int64
	other     atomic.Int64 // FailureClosed and application-level errors

	// bytes ledgers payload bytes sent/received, per method (bytes.go).
	bytes byteBook
}

// NewClientMetrics returns an empty, shareable counter set.
func NewClientMetrics() *ClientMetrics { return &ClientMetrics{} }

// Register exposes the counters as cumulative series under prefix
// (calls, attempts, retries, ok, timeout, overload, refused, lost,
// failed). Safe with a nil receiver or registry.
func (m *ClientMetrics) Register(reg *tsdb.Registry, prefix string) {
	if m == nil {
		return
	}
	for _, c := range []struct {
		name string
		v    *atomic.Int64
	}{
		{"/calls", &m.calls},
		{"/attempts", &m.attempts},
		{"/retries", &m.retries},
		{"/throttled", &m.throttled},
		{"/ok", &m.ok},
		{"/timeout", &m.timeout},
		{"/overload", &m.overload},
		{"/refused", &m.refused},
		{"/lost", &m.lost},
		{"/expired", &m.expired},
		{"/failed", &m.other},
	} {
		v := c.v
		reg.GaugeFunc(prefix+c.name, func(now time.Time) float64 { return float64(v.Load()) })
	}
	reg.GaugeFunc(prefix+"/bytes_sent", func(now time.Time) float64 {
		_, out := m.bytes.totals()
		return float64(out)
	})
	reg.GaugeFunc(prefix+"/bytes_received", func(now time.Time) float64 {
		in, _ := m.bytes.totals()
		return float64(in)
	})
}

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

func (m *ClientMetrics) onRetry() {
	if m != nil {
		m.retries.Add(1)
	}
}

// onThrottle counts a retry the budget denied.
func (m *ClientMetrics) onThrottle() {
	if m != nil {
		m.throttled.Add(1)
	}
}

// onResult classifies a finished logical call's outcome.
func (m *ClientMetrics) onResult(err error) {
	if m == nil {
		return
	}
	if err == nil {
		m.ok.Add(1)
		return
	}
	switch Classify(err) {
	case FailureTimeout:
		m.timeout.Add(1)
	case FailureOverload:
		m.overload.Add(1)
	case FailureRefused:
		m.refused.Add(1)
	case FailureLost:
		m.lost.Add(1)
	case FailureExpired:
		m.expired.Add(1)
	default:
		m.other.Add(1)
	}
}

// ClientStats is a consistent-enough copy of the counters, for tests
// and status displays.
type ClientStats struct {
	Calls, Attempts, Retries         int64
	Throttled                        int64
	OK                               int64
	Timeout, Overload, Refused, Lost int64
	Expired                          int64
	Other                            int64
	// BytesSent and BytesReceived total the payload bytes shipped
	// (request bodies, every attempt) and received (response bodies)
	// across all methods; the per-method split is MethodIO.
	BytesSent     int64
	BytesReceived int64
}

// Stats returns the current counter values (zero for a nil receiver).
func (m *ClientMetrics) Stats() ClientStats {
	if m == nil {
		return ClientStats{}
	}
	in, out := m.bytes.totals()
	return ClientStats{
		BytesSent:     out,
		BytesReceived: in,
		Calls:         m.calls.Load(),
		Attempts:      m.attempts.Load(),
		Retries:       m.retries.Load(),
		Throttled:     m.throttled.Load(),
		OK:            m.ok.Load(),
		Timeout:       m.timeout.Load(),
		Overload:      m.overload.Load(),
		Refused:       m.refused.Load(),
		Lost:          m.lost.Load(),
		Expired:       m.expired.Load(),
		Other:         m.other.Load(),
	}
}

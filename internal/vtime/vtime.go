// Package vtime provides the clock abstraction used throughout the
// DI-GRUBER reproduction. All time-dependent components (site schedulers,
// state-exchange loops, DiPerF testers, timeouts) take a Clock rather than
// calling the time package directly, so the same code can run:
//
//   - against the real wall clock (Real),
//   - time-compressed, where one emulated "grid second" lasts a few real
//     milliseconds (Scaled) — this is how the paper's hour-long PlanetLab
//     runs are replayed on one machine, and
//   - under a fully manual clock advanced explicitly by tests (Manual),
//     which makes unit tests of periodic machinery deterministic and
//     instant.
package vtime

import "time"

// Clock is the minimal timing surface the brokering stack needs.
type Clock interface {
	// Now returns the current (possibly virtual) time.
	Now() time.Time
	// Sleep blocks for d of virtual time.
	Sleep(d time.Duration)
	// After returns a channel that delivers the virtual time once d has
	// elapsed.
	After(d time.Duration) <-chan time.Time
	// AfterFunc schedules f to run in its own goroutine after d of
	// virtual time. The returned Timer can cancel the call.
	AfterFunc(d time.Duration, f func()) Timer
	// NewTicker returns a ticker firing every d of virtual time.
	NewTicker(d time.Duration) Ticker
	// NewAlarm returns an Alarm, not yet armed.
	NewAlarm() Alarm
	// Since is shorthand for Now().Sub(t).
	Since(t time.Time) time.Duration
}

// Timer is a cancellable pending call created by AfterFunc or After.
type Timer interface {
	// Stop cancels the timer. It reports whether the call was prevented
	// from firing.
	Stop() bool
}

// Ticker delivers periodic ticks on C until stopped.
type Ticker interface {
	// C returns the tick channel.
	C() <-chan time.Time
	// Stop shuts the ticker down. It does not close C.
	Stop()
}

package vtime

import (
	"sync"
	"time"
)

// Alarm is a one-shot timer that can be armed again and again, for a
// caller that would otherwise ask After for a new channel, and a new
// timer behind it, on every use.
type Alarm interface {
	// C is the channel the alarm delivers on, the same one for the
	// alarm's whole life.
	C() <-chan time.Time
	// Reset arms the alarm to deliver the virtual time once d has
	// elapsed, in place of any earlier arming: no tick of an earlier
	// arming is delivered after Reset has returned.
	Reset(d time.Duration)
}

// timerAlarm is the Alarm of the clocks that wait in real time: one
// runtime timer, re-armed by Reset, behind a channel of capacity one.
type timerAlarm struct {
	ch    chan time.Time
	stamp func() time.Time                  // the time a tick carries
	real  func(time.Duration) time.Duration // virtual to real duration

	mu sync.Mutex
	t  *time.Timer
	// due is the real instant the armed tick falls due; zero when no
	// tick is armed.
	due time.Time
}

func newTimerAlarm(stamp func() time.Time, real func(time.Duration) time.Duration) *timerAlarm {
	return &timerAlarm{ch: make(chan time.Time, 1), stamp: stamp, real: real}
}

func (a *timerAlarm) C() <-chan time.Time { return a.ch }

func (a *timerAlarm) Reset(d time.Duration) {
	r := a.real(d)
	a.mu.Lock()
	defer a.mu.Unlock()
	a.due = time.Now().Add(r)
	select {
	case <-a.ch: // the tick of an earlier arming, never taken
	default:
	}
	if a.t == nil {
		a.t = time.AfterFunc(r, a.fire)
	} else {
		a.t.Reset(r)
	}
}

// fire delivers the armed tick if it is due. A timer reset while its
// earlier run was already on its way runs once more, early; that run
// finds the tick not yet due and delivers nothing.
func (a *timerAlarm) fire() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.due.IsZero() || time.Now().Before(a.due) {
		return
	}
	a.due = time.Time{}
	select {
	case a.ch <- a.stamp():
	default:
	}
}

// NewAlarm implements Clock.
func (Real) NewAlarm() Alarm {
	return newTimerAlarm(time.Now, func(d time.Duration) time.Duration { return d })
}

// NewAlarm implements Clock.
func (s *Scaled) NewAlarm() Alarm { return newTimerAlarm(s.Now, s.real) }

// manualAlarm is the Manual clock's Alarm. Each Reset adds a waiter as
// After does, and no arming is ever taken off the clock: Advance moves
// now through every unstopped waiter it passes, so an alarm that stopped
// its earlier arming would change what the clock's other waiters see.
// A superseded arming fires into nothing instead.
type manualAlarm struct {
	m  *Manual
	ch chan time.Time

	mu sync.Mutex
	// armed counts Resets; a waiter delivers only if no Reset followed
	// the one that added it.
	armed uint64
}

// NewAlarm implements Clock.
func (m *Manual) NewAlarm() Alarm { return &manualAlarm{m: m, ch: make(chan time.Time, 1)} }

func (a *manualAlarm) C() <-chan time.Time { return a.ch }

func (a *manualAlarm) Reset(d time.Duration) {
	a.mu.Lock()
	a.armed++
	arming := a.armed
	select {
	case <-a.ch: // the tick of an earlier arming, never taken
	default:
	}
	a.mu.Unlock()
	a.m.add(d, 0, func(now time.Time) {
		a.mu.Lock()
		defer a.mu.Unlock()
		if a.armed == arming {
			select {
			case a.ch <- now:
			default:
			}
		}
	})
}

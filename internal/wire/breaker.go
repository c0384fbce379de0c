package wire

import (
	"sync"
	"time"

	"digruber/internal/vtime"
)

// BreakerState is a circuit breaker's position.
type BreakerState int

// Breaker states.
const (
	// BreakerClosed passes calls through and watches for consecutive
	// failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen fails calls locally without touching the wire, until
	// the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen lets exactly one probe through; its outcome
	// decides between re-closing and re-opening.
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	default:
		return "half-open"
	}
}

// BreakerConfig parameterizes a Breaker.
type BreakerConfig struct {
	Clock vtime.Clock
	// Threshold is the consecutive-failure count that trips the breaker
	// (default 5). Zero or negative uses the default; callers gating on
	// "breaker configured at all" should check their own config, not
	// this field.
	Threshold int
	// Cooldown is how long an open breaker waits before letting a
	// half-open probe through (default 30 s of virtual time).
	Cooldown time.Duration
	// OnTransition, when non-nil, observes every state change (for
	// metrics counters). Called outside the breaker's lock.
	OnTransition func(from, to BreakerState)
}

// Breaker is a per-destination circuit breaker over wire failure
// classes, driven entirely by the virtual clock so Manual-clock runs
// replay its transitions deterministically.
//
// Closed→Open: Threshold consecutive transport-level failures (shed,
// conn-lost, refused, timeout, expired — anything that says "the far
// end is unhealthy or drowning"). Application-level errors come from a
// server that is up and answering, so they reset the streak like a
// success. Open→HalfOpen: the first Allow after Cooldown elapses admits
// one probe. HalfOpen→Closed on probe success, HalfOpen→Open on probe
// failure.
//
// A nil *Breaker allows everything and records nothing, so callers
// without breaking configured pay one nil check.
type Breaker struct {
	clock     vtime.Clock
	threshold int
	cooldown  time.Duration
	onChange  func(from, to BreakerState)

	mu       sync.Mutex
	state    BreakerState
	fails    int
	openedAt time.Time
	probing  bool // half-open: one probe in flight
}

// NewBreaker builds a breaker from its config.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 5
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 30 * time.Second
	}
	return &Breaker{
		clock:     cfg.Clock,
		threshold: cfg.Threshold,
		cooldown:  cfg.Cooldown,
		onChange:  cfg.OnTransition,
	}
}

// transitionLocked moves the breaker to next and returns the callback to
// fire after unlocking (nil when the state did not change).
func (b *Breaker) transitionLocked(next BreakerState) func() {
	if b.state == next {
		return nil
	}
	from := b.state
	b.state = next
	if cb := b.onChange; cb != nil {
		return func() { cb(from, next) }
	}
	return nil
}

// Allow reports whether a call to the destination may proceed. An open
// breaker whose cooldown has elapsed flips to half-open and admits the
// caller as its single probe. Nil receivers always allow.
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	var notify func()
	allowed := false
	switch b.state {
	case BreakerClosed:
		allowed = true
	case BreakerOpen:
		if !b.clock.Now().Before(b.openedAt.Add(b.cooldown)) {
			notify = b.transitionLocked(BreakerHalfOpen)
			b.probing = true
			allowed = true
		}
	case BreakerHalfOpen:
		if !b.probing {
			b.probing = true
			allowed = true
		}
	}
	b.mu.Unlock()
	if notify != nil {
		notify()
	}
	return allowed
}

// Record feeds one call outcome into the breaker. Call it only for
// calls that actually went to the wire (not for calls Allow rejected).
func (b *Breaker) Record(err error) {
	if b == nil {
		return
	}
	failure := false
	switch Classify(err) {
	case FailureOverload, FailureLost, FailureRefused, FailureTimeout, FailureExpired:
		failure = true
	case FailureClosed:
		// Locally-closed client: says nothing about the far end.
		return
	case FailureDraining, FailureNotDurable:
		// A draining or not-durable refusal is proof of life, not
		// failure: the far end answered, it is just retiring or its disk
		// is refusing. Failover owns the reaction; the breaker treats it
		// like any successful contact.
	}
	b.mu.Lock()
	var notify func()
	if failure {
		switch b.state {
		case BreakerHalfOpen:
			// The probe failed: back to open, cooldown restarts.
			notify = b.transitionLocked(BreakerOpen)
			b.openedAt = b.clock.Now()
			b.probing = false
			b.fails = 0
		case BreakerClosed:
			b.fails++
			if b.fails >= b.threshold {
				notify = b.transitionLocked(BreakerOpen)
				b.openedAt = b.clock.Now()
				b.fails = 0
			}
		}
	} else {
		switch b.state {
		case BreakerHalfOpen:
			notify = b.transitionLocked(BreakerClosed)
			b.probing = false
			b.fails = 0
		case BreakerClosed:
			b.fails = 0
		}
	}
	b.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// State returns the breaker's current position (closed for nil). It
// does not advance open→half-open; only Allow does, so replayed runs
// transition at the same observation points.
func (b *Breaker) State() BreakerState {
	if b == nil {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

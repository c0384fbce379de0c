package wire

import (
	"sync"
	"time"

	"digruber/internal/vtime"
)

// RetryBudget is a windowed cap on retry volume: a token bucket refilled
// off the virtual clock, typically shared by a whole fleet of clients.
// Per-call exponential backoff decorrelates retries in time, but it does
// not bound them in volume — when a saturated server sheds every request,
// every client retries, and the offered load multiplies by the attempt
// count exactly when the server can least afford it (the classic retry
// storm). A shared budget caps that amplification: each retry spends one
// token, tokens refill at Rate per second of virtual time up to Burst,
// and a client whose retry is denied surfaces the original failure
// immediately instead of piling on.
//
// Refill is a pure function of elapsed virtual time, so Manual-clock
// runs replay budget decisions bit-for-bit. A nil *RetryBudget allows
// everything (retry policies without one behave as before).
type RetryBudget struct {
	clock vtime.Clock
	rate  float64 // tokens per second of virtual time
	burst float64

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// NewRetryBudget returns a full bucket refilling at rate tokens/s up to
// burst. Non-positive rate or burst values are clamped to a minimal
// working budget (1 token/s, burst 1) rather than a dead one.
func NewRetryBudget(clock vtime.Clock, rate, burst float64) *RetryBudget {
	if rate <= 0 {
		rate = 1
	}
	if burst <= 0 {
		burst = 1
	}
	return &RetryBudget{
		clock:  clock,
		rate:   rate,
		burst:  burst,
		tokens: burst,
		last:   clock.Now(),
	}
}

// Allow spends one token if available and reports whether the retry may
// proceed. Nil receivers always allow.
func (b *RetryBudget) Allow() bool {
	if b == nil {
		return true
	}
	now := b.clock.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	if elapsed := now.Sub(b.last).Seconds(); elapsed > 0 {
		b.tokens += elapsed * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}

// Package randlib is a globalrand fixture: library randomness must come
// from seeded netsim.Stream streams, not the process-global source.
package randlib

import (
	"math/rand"

	"digruber/internal/netsim"
)

// Holding the type is legal: only the top-level functions are banned.
type jitter struct {
	rng *rand.Rand
}

func bad() {
	_ = rand.Intn(10)                  // want `rand\.Intn bypasses the seeded stream`
	_ = rand.Float64()                 // want `rand\.Float64 bypasses the seeded stream`
	rand.Seed(42)                      // want `rand\.Seed bypasses the seeded stream`
	_ = rand.New(rand.NewSource(1))    // want `rand\.New bypasses the seeded stream` `rand\.NewSource bypasses the seeded stream`
	rand.Shuffle(3, func(i, j int) {}) // want `rand\.Shuffle bypasses the seeded stream`
}

func good(seed int64) *jitter {
	j := &jitter{rng: netsim.Stream(seed, "randlib.jitter")}
	_ = j.rng.Intn(10) // method on an owned stream, not the global source
	return j
}

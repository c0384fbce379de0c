package netsim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestStreamDeterministic(t *testing.T) {
	a := Stream(42, "workload")
	b := Stream(42, "workload")
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same (seed, name) produced different streams")
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	a := Stream(42, "workload")
	b := Stream(42, "jitter")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Int63() == b.Int63() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct names collided %d/100 times", same)
	}
}

func TestBaseLatencySymmetricAndStable(t *testing.T) {
	n := New(7, PlanetLab())
	ab := n.BaseLatency("a", "b")
	ba := n.BaseLatency("b", "a")
	if ab != ba {
		t.Fatalf("asymmetric base latency: %v vs %v", ab, ba)
	}
	if again := n.BaseLatency("a", "b"); again != ab {
		t.Fatalf("base latency changed between calls: %v vs %v", again, ab)
	}
	n2 := New(7, PlanetLab())
	if n2.BaseLatency("a", "b") != ab {
		t.Fatal("base latency not reproducible across Network instances with same seed")
	}
}

func TestDifferentPairsDiffer(t *testing.T) {
	n := New(7, PlanetLab())
	seen := map[time.Duration]bool{}
	pairs := [][2]string{{"a", "b"}, {"a", "c"}, {"b", "c"}, {"d", "e"}}
	for _, p := range pairs {
		seen[n.BaseLatency(p[0], p[1])] = true
	}
	if len(seen) < 3 {
		t.Fatalf("suspiciously uniform latencies across pairs: %v", seen)
	}
}

func TestDelayWithinJitterBounds(t *testing.T) {
	p := PlanetLab()
	n := New(3, p)
	base := n.BaseLatency("x", "y")
	for i := 0; i < 1000; i++ {
		d := n.Delay("x", "y")
		if d < base {
			t.Fatalf("delay %v below base %v", d, base)
		}
		if max := base + time.Duration(float64(base)*p.JitterFrac); d > max {
			t.Fatalf("delay %v above max %v", d, max)
		}
	}
}

func TestPlanetLabLatencyDistribution(t *testing.T) {
	n := New(11, PlanetLab())
	var sum time.Duration
	const pairs = 500
	for i := 0; i < pairs; i++ {
		sum += n.BaseLatency("node-a", nodeName(i))
	}
	mean := sum / pairs
	// Log-normal around 40ms with sigma 0.6 has mean ≈ 48ms; accept a
	// broad band — we only need "tens of milliseconds, heavy tail".
	if mean < 20*time.Millisecond || mean > 120*time.Millisecond {
		t.Fatalf("mean base latency %v outside WAN band", mean)
	}
}

func nodeName(i int) string { return "node-" + string(rune('0'+i%10)) + string(rune('a'+i%26)) }

// The zero Profile is a loopback: no latency, no transfer time, no loss.
func TestLoopbackIsFree(t *testing.T) {
	n := New(1, Profile{})
	if d := n.Delay("a", "b"); d != 0 {
		t.Fatalf("loopback delay = %v, want 0", d)
	}
	if tt := n.TransferTime("a", "b", 1<<30); tt != 0 {
		t.Fatalf("loopback transfer = %v, want 0", tt)
	}
	if n.Lost() {
		t.Fatal("loopback lost a message")
	}
}

func TestTransferTimeScalesWithSize(t *testing.T) {
	n := New(5, PlanetLab())
	small := n.TransferTime("a", "b", 1<<10)
	big := n.TransferTime("a", "b", 100<<20) // 100 MiB at 10 Mb/s ≈ 84 s
	if big <= small {
		t.Fatal("transfer time does not grow with size")
	}
	if big < 60*time.Second || big > 120*time.Second {
		t.Fatalf("100 MiB over 10 Mb/s took %v, want ≈84s", big)
	}
}

func TestLossProbabilityRoughlyHonored(t *testing.T) {
	p := PlanetLab()
	p.LossProb = 0.2
	n := New(9, p)
	lost := 0
	const trials = 5000
	for i := 0; i < trials; i++ {
		if n.Lost() {
			lost++
		}
	}
	frac := float64(lost) / trials
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("loss fraction %v, want ≈0.2", frac)
	}
}

func TestDelayNonNegativeProperty(t *testing.T) {
	n := New(123, PlanetLab())
	f := func(a, b string) bool { return n.Delay(a, b) >= 0 }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLANFasterThanPlanetLab(t *testing.T) {
	wan := New(1, PlanetLab())
	lan := New(1, LAN())
	if lan.BaseLatency("a", "b") >= wan.BaseLatency("a", "b") {
		t.Fatal("LAN should be faster than PlanetLab")
	}
}

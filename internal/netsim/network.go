package netsim

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// Profile describes the statistical character of a network's links. Base
// one-way latency for a node pair is sampled once (log-normally around
// MedianLatency) and stays fixed for the pair — geography doesn't change
// during a run — while per-message jitter is re-sampled every message.
type Profile struct {
	// Name labels the profile in reports.
	Name string
	// MedianLatency is the median one-way link latency.
	MedianLatency time.Duration
	// LatencySigma is the sigma of the log-normal base-latency draw; 0
	// makes every pair identical.
	LatencySigma float64
	// JitterFrac is the maximum per-message jitter as a fraction of the
	// pair's base latency (uniform in [0, JitterFrac]).
	JitterFrac float64
	// Bandwidth is the per-link bandwidth used for bulk transfers.
	Bandwidth ByteRate
	// LossProb is the probability a message is lost outright (the caller
	// sees it as an error after its timeout).
	LossProb float64
}

// ByteRate is a data rate in bytes per second.
type ByteRate float64

const (
	// Mbps converts megabits per second to a ByteRate.
	Mbps ByteRate = 1e6 / 8
)

// PlanetLab approximates the testbed described in the paper: WAN
// latencies in the tens of milliseconds with a heavy tail, ~10 Mb/s links.
func PlanetLab() Profile {
	return Profile{
		Name:          "planetlab",
		MedianLatency: 40 * time.Millisecond,
		LatencySigma:  0.6,
		JitterFrac:    0.25,
		Bandwidth:     10 * Mbps,
		LossProb:      0.001,
	}
}

// LAN approximates the tightly-coupled deployment the paper's conclusion
// speculates about (sub-millisecond latencies, fast links).
func LAN() Profile {
	return Profile{
		Name:          "lan",
		MedianLatency: 300 * time.Microsecond,
		LatencySigma:  0.2,
		JitterFrac:    0.1,
		Bandwidth:     100 * Mbps,
	}
}

// Network samples link behaviour between named nodes under a Profile.
// It is safe for concurrent use.
type Network struct {
	profile Profile
	seed    int64

	mu     sync.Mutex
	bases  map[[2]string]time.Duration
	jitter *rand.Rand
	faults *FaultPlane
}

// New returns a Network over the given profile with a deterministic seed.
func New(seed int64, p Profile) *Network {
	return &Network{
		profile: p,
		seed:    seed,
		bases:   make(map[[2]string]time.Duration),
		jitter:  Stream(seed, "netsim.jitter/"+p.Name),
	}
}

// Profile returns the network's profile.
func (n *Network) Profile() Profile { return n.profile }

// BaseLatency returns the fixed one-way latency of the (from, to) pair.
func (n *Network) BaseLatency(from, to string) time.Duration {
	key := pairKey(from, to)
	n.mu.Lock()
	defer n.mu.Unlock()
	if d, ok := n.bases[key]; ok {
		return d
	}
	d := n.sampleBase(from, to)
	n.bases[key] = d
	return d
}

func (n *Network) sampleBase(from, to string) time.Duration {
	p := n.profile
	if p.MedianLatency <= 0 {
		return 0
	}
	if p.LatencySigma == 0 {
		return p.MedianLatency
	}
	r := rand.New(rand.NewSource(pairSeed(n.seed, from, to)))
	factor := math.Exp(r.NormFloat64() * p.LatencySigma)
	return time.Duration(float64(p.MedianLatency) * factor)
}

// Delay samples the one-way delay for a single message from one node to
// another: the pair's base latency plus fresh jitter.
func (n *Network) Delay(from, to string) time.Duration {
	base := n.BaseLatency(from, to)
	if base == 0 {
		return 0
	}
	n.mu.Lock()
	j := n.jitter.Float64()
	n.mu.Unlock()
	return base + time.Duration(float64(base)*n.profile.JitterFrac*j)
}

// Lost reports whether a message should be dropped, per the profile's
// loss probability.
func (n *Network) Lost() bool {
	if n.profile.LossProb <= 0 {
		return false
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.jitter.Float64() < n.profile.LossProb
}

// SetFaults attaches a fault plane; LostMsg consults it from then on.
// Passing nil detaches it.
func (n *Network) SetFaults(f *FaultPlane) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faults = f
}

// Faults returns the attached fault plane (nil when none).
func (n *Network) Faults() *FaultPlane {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.faults
}

// LostMsg reports whether a single message from one node to another at
// virtual time now is lost: severed by a scheduled fault, or dropped by
// the profile's background loss probability. The fault check comes
// first and draws no randomness, so fault windows never perturb the
// jitter stream of the healthy portion of a run.
func (n *Network) LostMsg(from, to string, now time.Time) bool {
	n.mu.Lock()
	f := n.faults
	n.mu.Unlock()
	if f != nil && f.Severed(from, to, now) {
		return true
	}
	return n.Lost()
}

// TransferTime estimates how long moving size bytes between two nodes
// takes: one base latency plus serialization at the link bandwidth.
func (n *Network) TransferTime(from, to string, size int64) time.Duration {
	lat := n.BaseLatency(from, to)
	bw := float64(n.profile.Bandwidth)
	if math.IsInf(bw, 1) || bw <= 0 {
		return lat
	}
	return lat + time.Duration(float64(size)/bw*float64(time.Second))
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

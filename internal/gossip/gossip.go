// Package gossip is the peer-sampling dissemination subsystem that lets
// the DI-GRUBER mesh scale past the paper's 10 decision points. The
// full-mesh flood costs O(N²) messages per exchange round — each of N
// points contacts all N-1 peers — which is exactly what caps fleet size.
// A gossip round instead contacts a seeded sample of fanout k peers with
// a push-pull anti-entropy exchange: each side advertises a digest (a
// version vector over origin decision points, see gruber.OriginVector)
// and ships what the other side's vector lacks, own records and relayed
// third-party records alike. Per-DP traffic then tracks the fanout, not
// the fleet size, while news still crosses the fleet in O(log N) hops
// with high probability.
//
// Everything here is deterministic: peer selection draws from
// netsim.Stream seeded by (seed, self, round), so a Manual-clock run
// replays byte-identically — the same regime as the fault plane, the
// tracer and the metrics plane.
package gossip

import (
	"fmt"
	"sort"
)

const (
	// DefaultFanout is how many peers one round contacts when a decision
	// point's gossip configuration leaves Fanout zero. Three pushes
	// per round keeps per-round traffic constant while an infection
	// still reaches the whole fleet in a handful of rounds at 100 DPs.
	DefaultFanout = 3
	// MaxRecords bounds the dispatch records one gossip message
	// carries, so a freshly-joined point is caught up over a few rounds
	// instead of one unbounded frame.
	MaxRecords = 4096
)

// Cursor is one origin's entry in a wire-encoded digest: the highest
// contiguous dispatch sequence number the sender holds for that origin.
// Digests travel as sorted []Cursor rather than a map so the gob
// encoding of a given vector is unique (maps iterate in random order).
type Cursor struct {
	Origin string
	Seq    uint64
}

// Cursors encodes a version vector as a digest: one Cursor per origin,
// sorted by origin name. Zero entries are kept — a floor of 0 after a
// restart is information too.
func Cursors(vv map[string]uint64) []Cursor {
	if len(vv) == 0 {
		return nil
	}
	out := make([]Cursor, 0, len(vv))
	//lint:allow mapiter -- collected slice is sorted by origin right below
	for origin, seq := range vv {
		out = append(out, Cursor{Origin: origin, Seq: seq})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Origin < out[j].Origin })
	return out
}

// Vector decodes a digest back into a version vector. Nil in, nil out.
func Vector(cursors []Cursor) map[string]uint64 {
	if len(cursors) == 0 {
		return nil
	}
	vv := make(map[string]uint64, len(cursors))
	for _, c := range cursors {
		vv[c.Origin] = c.Seq
	}
	return vv
}

// Seq returns the digest's entry for origin (0 when absent).
func Seq(cursors []Cursor, origin string) uint64 {
	for _, c := range cursors {
		if c.Origin == origin {
			return c.Seq
		}
	}
	return 0
}

// MinAcked folds one peer's acknowledged vector into a running
// per-origin minimum over the given origins: for every origin,
// acc[origin] becomes min(acc[origin], acked[origin]), a missing peer
// entry counting as zero and a missing acc entry as "first fold". Fold
// every view member's vector into the same acc to get the compaction
// floor gruber.CompactOrigins takes.
func MinAcked(acc map[string]uint64, acked map[string]uint64, origins []string) {
	for _, origin := range origins {
		v := acked[origin] // 0 when the peer never acknowledged this origin
		if cur, ok := acc[origin]; !ok || v < cur {
			acc[origin] = v
		}
	}
}

// StreamName names the deterministic random stream for one decision
// point's peer draw in one round — the shared convention that makes a
// replayed run sample identical peers.
func StreamName(self string, round uint64) string {
	return fmt.Sprintf("gossip/%s/round/%d", self, round)
}

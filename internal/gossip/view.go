package gossip

import (
	"hash/fnv"
	"sort"

	"digruber/internal/netsim"
)

// Member is one decision point as membership piggybacking names it —
// just enough to dial it (the same triple AddPeer takes).
type Member struct {
	Name string
	Node string
	Addr string
}

// Active returns the members of a partial view that a round may draw
// from. A point may know every fleet member (membership records
// piggyback on gossip messages, so names spread epidemically), but when
// size is set only the size members ranked lowest by a per-self hash are
// active. Each decision point therefore gossips over its own stable
// random subgraph; with size ≥ a few times log N the union of those
// subgraphs is connected with high probability, which is all epidemic
// dissemination needs. Size 0 means every member is active.
//
// The per-self ranking (FNV of self‖name mixed with the seed) is what
// makes the subgraphs diverse: two decision points with identical
// knowledge still keep different subsets, so no member is systematically
// orphaned. names must be sorted and must not contain self; the result
// is sorted, and names is left as it was.
func Active(self string, seed int64, size int, names []string) []string {
	if size <= 0 || len(names) <= size {
		return names
	}
	ranked := append([]string(nil), names...)
	sort.Slice(ranked, func(i, j int) bool {
		ri, rj := rank(self, seed, ranked[i]), rank(self, seed, ranked[j])
		if ri != rj {
			return ri < rj
		}
		return ranked[i] < ranked[j]
	})
	ranked = ranked[:size]
	sort.Strings(ranked)
	return ranked
}

// rank orders members for the active subset: lowest hash wins. Mixing
// self into the hash decorrelates the subsets across decision points.
func rank(self string, seed int64, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(self))
	h.Write([]byte{0})
	h.Write([]byte(name))
	return h.Sum64() ^ (uint64(seed) * 0x9E3779B97F4A7C15)
}

// Sample draws up to k distinct names from the sorted active subset for
// one gossip round, in draw order. The draw is a pure function of (seed,
// self, round, active): a replayed round contacts the same peers in the
// same order, which is what keeps a Manual-clock gossip run
// byte-identical. active is left as it was.
func Sample(self string, seed int64, round uint64, k int, active []string) []string {
	if k <= 0 || len(active) == 0 {
		return nil
	}
	names := append([]string(nil), active...)
	rng := netsim.Stream(seed, StreamName(self, round))
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return names[:min(k, len(names))]
}

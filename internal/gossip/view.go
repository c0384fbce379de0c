package gossip

import (
	"hash/fnv"
	"sort"
	"sync"

	"digruber/internal/netsim"
)

// Member is one decision point as the membership view tracks it — just
// enough to dial it (the same triple AddPeer takes).
type Member struct {
	Name string
	Node string
	Addr string
}

// View is one decision point's partial membership view. It may know
// every fleet member (membership records piggyback on gossip messages,
// so names spread epidemically), but when a cap is set only the `cap`
// members ranked lowest by a per-self hash are *active* — eligible for
// sampling. Each decision point therefore gossips over its own stable
// random subgraph; with cap ≥ a few times log N the union of those
// subgraphs is connected with high probability, which is all epidemic
// dissemination needs. Cap 0 means every known member is active.
//
// The per-self ranking (FNV of self‖name mixed with the seed) is what
// makes the subgraphs diverse: two decision points with identical
// knowledge still keep different subsets, so no member is systematically
// orphaned.
type View struct {
	mu      sync.Mutex
	self    string
	seed    int64
	cap     int
	members map[string]Member
}

// NewView returns an empty view for the named decision point. Sampling
// and ranking draw all their randomness from seed, so equal seeds mean
// equal draws. cap bounds the active subset (0 = unlimited).
func NewView(self string, seed int64, cap int) *View {
	return &View{
		self:    self,
		seed:    seed,
		cap:     cap,
		members: make(map[string]Member),
	}
}

// Add records a member (idempotent; self is ignored). Later adds with a
// different address overwrite — a redeployed member keeps its name.
func (v *View) Add(m Member) {
	if m.Name == "" || m.Name == v.self {
		return
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.members[m.Name] = m
}

// Remove forgets a member.
func (v *View) Remove(name string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.members, name)
}

// Len reports how many members the view knows (active or not).
func (v *View) Len() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.members)
}

// rank orders members for the active subset: lowest hash wins. Mixing
// self into the hash decorrelates the subsets across decision points.
func (v *View) rank(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(v.self))
	h.Write([]byte{0})
	h.Write([]byte(name))
	return h.Sum64() ^ (uint64(v.seed) * 0x9E3779B97F4A7C15)
}

// activeLocked returns the active member names in sorted order. Caller
// holds v.mu.
func (v *View) activeLocked() []string {
	names := make([]string, 0, len(v.members))
	for name := range v.members {
		names = append(names, name)
	}
	if v.cap > 0 && len(names) > v.cap {
		sort.Slice(names, func(i, j int) bool {
			ri, rj := v.rank(names[i]), v.rank(names[j])
			if ri != rj {
				return ri < rj
			}
			return names[i] < names[j]
		})
		names = names[:v.cap]
	}
	sort.Strings(names)
	return names
}

// All returns every known member, active or not, sorted by name.
func (v *View) All() []Member {
	v.mu.Lock()
	defer v.mu.Unlock()
	names := make([]string, 0, len(v.members))
	for name := range v.members {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]Member, len(names))
	for i, name := range names {
		out[i] = v.members[name]
	}
	return out
}

// Sample draws up to k distinct active members for one gossip round.
// The draw is a pure function of (seed, self, round, active set): a
// replayed round contacts the same peers in the same order, which is
// what keeps a Manual-clock gossip run byte-identical.
func (v *View) Sample(round uint64, k int) []Member {
	v.mu.Lock()
	defer v.mu.Unlock()
	names := v.activeLocked()
	if k <= 0 || len(names) == 0 {
		return nil
	}
	rng := netsim.Stream(v.seed, StreamName(v.self, round))
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	if k > len(names) {
		k = len(names)
	}
	out := make([]Member, k)
	for i := 0; i < k; i++ {
		out[i] = v.members[names[i]]
	}
	return out
}

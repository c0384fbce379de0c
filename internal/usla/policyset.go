package usla

import (
	"fmt"
	"maps"
	"sort"
	"strings"
	"sync"
)

// PolicySet is an indexed collection of USLA entries with the resolution
// and fair-share evaluation logic decision points run on every scheduling
// request. It is safe for concurrent readers and writers — the paper's
// brokers both evaluate USLAs per job and accept USLA updates at runtime.
//
// A scheduling query does not walk the set per site: Resolve looks the
// consumer's levels up once and the Policy it returns evaluates any
// number of providers without touching ps.mu.
type PolicySet struct {
	mu sync.RWMutex
	// entries holds one entry per entryKey, in the order each key was
	// first added; at is each key's position in it.
	entries []Entry
	at      map[entryKey]int
	// index[resource][consumer] → that consumer's accumulated limits.
	index map[Resource]map[Path]*share
}

// entryKey is what an entry is about. A later entry with the same key
// replaces the earlier one, in entries as in index.
type entryKey struct {
	res      Resource
	consumer Path
	provider string
	kind     ShareKind
}

// share is everything the set says about one (resource, consumer). A
// published share is never mutated — Add swaps in a modified copy under
// ps.mu — so a Policy reads the one it holds without a lock, and an Add is
// seen by every Resolve that starts after it returns.
type share struct {
	any        limits            // accumulated AnyProvider entries
	byProvider map[string]limits // provider-specific entries only
}

type limits struct {
	target, upper, lower          float64
	hasTarget, hasUpper, hasLower bool
}

// NewPolicySet returns an empty set.
func NewPolicySet() *PolicySet {
	return &PolicySet{at: make(map[entryKey]int), index: make(map[Resource]map[Path]*share)}
}

// Add validates and inserts one entry. Later entries of the same
// (provider, consumer, resource, kind) replace earlier ones in place,
// which is how USLA modification works at runtime — and why a peer
// re-sending the entries it holds every exchange round leaves the set
// as large as it was.
func (ps *PolicySet) Add(e Entry) error {
	if err := e.Validate(); err != nil {
		return err
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	key := entryKey{e.Resource, e.Consumer, e.Provider, e.Share.Kind}
	if i, ok := ps.at[key]; ok {
		ps.entries[i] = e
	} else {
		ps.at[key] = len(ps.entries)
		ps.entries = append(ps.entries, e)
	}
	byConsumer, ok := ps.index[e.Resource]
	if !ok {
		byConsumer = make(map[Path]*share)
		ps.index[e.Resource] = byConsumer
	}
	next := &share{byProvider: map[string]limits{}}
	if old := byConsumer[e.Consumer]; old != nil {
		next.any = old.any
		maps.Copy(next.byProvider, old.byProvider)
	}
	l := next.any
	if e.Provider != AnyProvider {
		l = next.byProvider[e.Provider]
	}
	switch e.Share.Kind {
	case Target:
		l.target, l.hasTarget = e.Share.Percent, true
	case UpperLimit:
		l.upper, l.hasUpper = e.Share.Percent, true
	case LowerLimit:
		l.lower, l.hasLower = e.Share.Percent, true
	}
	if e.Provider == AnyProvider {
		next.any = l
	} else {
		next.byProvider[e.Provider] = l
	}
	byConsumer[e.Consumer] = next
	return nil
}

// AddAll inserts every entry, stopping at the first error.
func (ps *PolicySet) AddAll(entries []Entry) error {
	for _, e := range entries {
		if err := ps.Add(e); err != nil {
			return err
		}
	}
	return nil
}

// Entries returns a copy of all entries, one per (resource, consumer,
// provider, kind), in the order each was first added.
func (ps *PolicySet) Entries() []Entry {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	return append([]Entry(nil), ps.entries...)
}

// Limits is the resolved per-level share for one consumer path level at
// one provider, as percentages of the parent scope's allocation.
// Unspecified components fall back to the paper's opportunistic model:
// target defaults to the upper limit if one exists (else 100%), and the
// upper limit defaults to 100% ("free resources are acquired when
// available"). A lower limit guarantees nothing a selector ranks on, so
// only Validate reads it.
type Limits struct {
	Target float64
	Upper  float64
}

// LimitsFor resolves the share for one consumer path at one provider.
// A provider-specific entry overrides an AnyProvider entry per kind.
func (ps *PolicySet) LimitsFor(provider string, consumer Path, res Resource) Limits {
	ps.mu.RLock()
	s := ps.index[res][consumer]
	ps.mu.RUnlock()
	return s.at(provider)
}

// at merges the wildcard limits with provider's override, if any, and
// fills in the defaults — the one implementation of both rules. A nil
// share (no entry names the consumer) is all defaults.
func (s *share) at(provider string) Limits {
	out := Limits{Target: 100, Upper: 100}
	if s == nil {
		return out
	}
	merged := s.any
	if len(s.byProvider) > 0 {
		merged.apply(s.byProvider[provider])
	}
	if merged.hasUpper {
		out.Upper = merged.upper
		out.Target = merged.upper // target defaults to cap when only a cap is given
	}
	if merged.hasTarget {
		out.Target = merged.target
	}
	return out
}

func (l *limits) apply(o limits) {
	if o.hasTarget {
		l.target, l.hasTarget = o.target, true
	}
	if o.hasUpper {
		l.upper, l.hasUpper = o.upper, true
	}
	if o.hasLower {
		l.lower, l.hasLower = o.lower, true
	}
}

// Policy is one consumer's USLA for one resource as the set held it when
// Resolve ran: the share of each level of the consumer's Path.Levels.
type Policy struct {
	shares [3]*share
	depth  int
}

// Resolve looks up every level of consumer p for res, once.
func (ps *PolicySet) Resolve(p Path, res Resource) Policy {
	levels, depth := p.Levels()
	pol := Policy{depth: depth}
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	byConsumer := ps.index[res]
	for i := range levels[:depth] {
		pol.shares[i] = byConsumer[levels[i]]
	}
	return pol
}

// Evaluate resolves the consumer's absolute allocation at provider for a
// resource of the given capacity, and its headroom under the upper limit
// of every level, given used[i], its current usage at level i. Each
// level's percentages apply to the parent level's corresponding
// allocation, implementing the paper's recursive VO → group → user
// extension of Maui fair share. The products are taken level by level in
// exactly this order: scheduling decisions tie-break on these floats, so
// an algebraically equal rearrangement can change which site wins.
func (pol *Policy) Evaluate(provider string, capacity float64, used [3]float64) (ent Entitlement, headroom float64) {
	ent = Entitlement{Target: capacity, Upper: capacity}
	headroom = capacity
	for i := 0; i < pol.depth; i++ {
		l := pol.shares[i].at(provider)
		ent.Target *= l.Target / 100
		ent.Upper *= l.Upper / 100
		if r := ent.Upper - used[i]; r < headroom {
			headroom = r
		}
	}
	if headroom < 0 {
		headroom = 0
	}
	return ent, headroom
}

// Entitlement is an absolute allocation (in resource units, e.g. CPUs)
// resolved multiplicatively down a consumer path.
type Entitlement struct {
	Target float64
	Upper  float64
}

// Entitlement resolves the absolute allocation of consumer p at provider
// for a resource of the given capacity.
func (ps *PolicySet) Entitlement(provider string, p Path, res Resource, capacity float64) Entitlement {
	pol := ps.Resolve(p, res)
	ent, _ := pol.Evaluate(provider, capacity, [3]float64{})
	return ent
}

// UsageFunc reports the current absolute usage of a consumer path at the
// provider being evaluated. Usage of a parent path must include all of
// its children (the caller aggregates).
type UsageFunc func(p Path) float64

// Headroom reports how many more resource units consumer p may claim at
// provider under the hard (upper-limit) constraints of every level of its
// path: a user must fit within the user cap, the group cap and the VO cap
// simultaneously. Negative headroom (already over cap) clamps to 0.
func (ps *PolicySet) Headroom(provider string, p Path, res Resource, capacity float64, usage UsageFunc) float64 {
	pol := ps.Resolve(p, res)
	levels, depth := p.Levels()
	var used [3]float64
	for i := range levels[:depth] {
		used[i] = usage(levels[i])
	}
	_, headroom := pol.Evaluate(provider, capacity, used)
	return headroom
}

// TargetGap reports how far below (positive) or above (negative) its
// fair-share target consumer p currently is at provider, in absolute
// units. Site selectors rank candidate sites by descending TargetGap so
// under-served consumers catch up — the enforcement bias of the paper's
// V-PEP model.
func (ps *PolicySet) TargetGap(provider string, p Path, res Resource, capacity float64, usage UsageFunc) float64 {
	return ps.Entitlement(provider, p, res, capacity).Target - usage(p)
}

// Validate checks cross-entry consistency and returns all problems found:
// sibling targets that sum past 100%, lower limits above upper limits,
// and groups/users whose parents have no entries at all are reported.
func (ps *PolicySet) Validate() []error {
	ps.mu.RLock()
	defer ps.mu.RUnlock()
	var errs []error

	type scopeKey struct {
		res      Resource
		provider string
		parent   Path
	}
	targets := make(map[scopeKey][]float64)

	//lint:allow mapiter -- errs are sorted before return; targets is a group-by whose lists are sorted before summing
	for res, byConsumer := range ps.index {
		//lint:allow mapiter -- same: order is erased by the errs sort and the per-key target sort
		for consumer, s := range byConsumer {
			check := func(provider string, l limits) {
				if l.hasLower && l.hasUpper && l.lower > l.upper {
					errs = append(errs, fmt.Errorf(
						"usla: %s %s %s: lower limit %.1f%% exceeds upper limit %.1f%%",
						provider, consumer, res, l.lower, l.upper))
				}
				if l.hasTarget {
					key := scopeKey{res, provider, consumer.Parent()}
					targets[key] = append(targets[key], l.target)
				}
			}
			check(AnyProvider, s.any)
			//lint:allow mapiter -- same: order is erased by the errs sort and the per-key target sort
			for provider, l := range s.byProvider {
				check(provider, l)
			}
		}
	}
	//lint:allow mapiter -- errs are sorted before return
	for key, list := range targets {
		// Sum in sorted order: float addition does not commute under
		// rounding, so the comparison below must not see map order.
		sort.Float64s(list)
		var sum float64
		for _, t := range list {
			sum += t
		}
		if sum > 100+1e-9 {
			errs = append(errs, fmt.Errorf(
				"usla: provider %s, scope %q, resource %s: sibling targets sum to %.1f%% > 100%%",
				key.provider, key.parent, key.res, sum))
		}
	}
	sort.Slice(errs, func(i, j int) bool { return errs[i].Error() < errs[j].Error() })
	return errs
}

// String renders the whole set in the text format, sorted for stability.
func (ps *PolicySet) String() string {
	entries := ps.Entries()
	lines := make([]string, len(entries))
	for i, e := range entries {
		lines[i] = e.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

package gruber

import (
	"math/rand"
	"sync"
)

// Selector is the site selector interface: given the engine's evaluation
// of every candidate site, pick where the job runs. The paper lists
// round-robin, least-used and least-recently-used as example task
// assignment policies; the USLA-aware selector is what DI-GRUBER's
// experiments exercise, and the random selector doubles as the client's
// timeout fallback.
type Selector interface {
	// Name identifies the policy in reports.
	Name() string
	// Select picks a site for a job needing cpus CPUs. ok is false when
	// no site qualifies. loads is valid only for the duration of the
	// call: the caller reuses its storage for the next decision, so a
	// selector may keep a site's name — a string of its own — but never
	// the slice or a pointer into it.
	Select(loads []SiteLoad, cpus int) (site string, ok bool)
}

// Random picks uniformly among sites with enough estimated free CPUs,
// ignoring USLAs — exactly what clients fall back to when their decision
// point times out ("selects a site at random, without considering
// USLAs"). If nothing has free CPUs it picks uniformly among all sites.
type Random struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewRandom returns a Random selector driven by rng.
func NewRandom(rng *rand.Rand) *Random { return &Random{rng: rng} }

// Name implements Selector.
func (r *Random) Name() string { return "random" }

// Select implements Selector.
func (r *Random) Select(loads []SiteLoad, cpus int) (string, bool) {
	if len(loads) == 0 {
		return "", false
	}
	candidates := make([]int, 0, len(loads))
	for i, l := range loads {
		if l.EstFreeCPUs >= cpus {
			candidates = append(candidates, i)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(candidates) == 0 {
		return loads[r.rng.Intn(len(loads))].Name, true
	}
	return loads[candidates[r.rng.Intn(len(candidates))]].Name, true
}

// RoundRobin cycles through qualifying sites in name order.
type RoundRobin struct {
	mu   sync.Mutex
	next int
}

// NewRoundRobin returns a fresh round-robin selector.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements Selector.
func (r *RoundRobin) Name() string { return "round-robin" }

// Select implements Selector.
func (r *RoundRobin) Select(loads []SiteLoad, cpus int) (string, bool) {
	if len(loads) == 0 {
		return "", false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < len(loads); i++ {
		l := loads[(r.next+i)%len(loads)]
		if l.EstFreeCPUs >= cpus {
			r.next = (r.next + i + 1) % len(loads)
			return l.Name, true
		}
	}
	return "", false
}

// LeastUsed picks the site with the lowest estimated utilization
// fraction (most relative headroom), ties broken by name.
type LeastUsed struct{}

// Name implements Selector.
func (LeastUsed) Name() string { return "least-used" }

// Select implements Selector.
func (LeastUsed) Select(loads []SiteLoad, cpus int) (string, bool) {
	best := -1
	var bestFrac float64
	for i, l := range loads {
		if l.EstFreeCPUs < cpus || l.TotalCPUs == 0 {
			continue
		}
		frac := float64(l.EstFreeCPUs) / float64(l.TotalCPUs)
		if best < 0 || frac > bestFrac || (frac == bestFrac && l.Name < loads[best].Name) {
			best, bestFrac = i, frac
		}
	}
	if best < 0 {
		return "", false
	}
	return loads[best].Name, true
}

// LeastRecentlyUsed picks the qualifying site this selector has not
// dispatched to for the longest time (never-used sites first, in name
// order).
type LeastRecentlyUsed struct {
	mu       sync.Mutex
	lastUsed map[string]int64
	tick     int64
}

// NewLeastRecentlyUsed returns a fresh LRU selector.
func NewLeastRecentlyUsed() *LeastRecentlyUsed {
	return &LeastRecentlyUsed{lastUsed: make(map[string]int64)}
}

// Name implements Selector.
func (l *LeastRecentlyUsed) Name() string { return "least-recently-used" }

// Select implements Selector.
func (l *LeastRecentlyUsed) Select(loads []SiteLoad, cpus int) (string, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	best := -1
	var bestTick int64
	for i, ld := range loads {
		if ld.EstFreeCPUs < cpus {
			continue
		}
		tick := l.lastUsed[ld.Name] // zero for never-used
		if best < 0 || tick < bestTick || (tick == bestTick && ld.Name < loads[best].Name) {
			best, bestTick = i, tick
		}
	}
	if best < 0 {
		return "", false
	}
	l.tick++
	l.lastUsed[loads[best].Name] = l.tick
	return loads[best].Name, true
}

// MostFree greedily picks the site its decision point believes has the
// most free CPUs (absolute), ties broken by name. Because its objective
// is exactly the per-job scheduling accuracy metric, it is the selector
// the accuracy-vs-exchange-interval experiments use: with a fresh view
// it scores ~100% by construction, and every point it loses is
// attributable to state staleness.
type MostFree struct{}

// Name implements Selector.
func (MostFree) Name() string { return "most-free" }

// Select implements Selector.
func (MostFree) Select(loads []SiteLoad, cpus int) (string, bool) {
	best := -1
	for i, l := range loads {
		if l.EstFreeCPUs < cpus {
			continue
		}
		if best < 0 || l.EstFreeCPUs > loads[best].EstFreeCPUs ||
			(l.EstFreeCPUs == loads[best].EstFreeCPUs && l.Name < loads[best].Name) {
			best = i
		}
	}
	if best < 0 {
		return "", false
	}
	return loads[best].Name, true
}

// USLAAware is DI-GRUBER's selector: restrict to sites where the
// consumer has USLA headroom and estimated free CPUs, then prefer the
// site where the consumer is furthest under its fair-share target,
// breaking ties toward more free CPUs. This implements the paper's
// V-PEP steering — allocations move toward owner-intended shares.
type USLAAware struct{}

// Name implements Selector.
func (USLAAware) Name() string { return "usla-aware" }

// Select implements Selector.
func (USLAAware) Select(loads []SiteLoad, cpus int) (string, bool) {
	// A site can only help a consumer catch up to its target as far as
	// it has free CPUs, so the score caps the gap at the availability;
	// otherwise a nearly-full site with a large nominal target would
	// outrank an empty one.
	score := func(l *SiteLoad) float64 {
		if free := float64(l.EstFreeCPUs); l.TargetGap > free {
			return free
		}
		return l.TargetGap
	}
	// One pass keeping the best under a total order (score ↓, free CPUs ↓,
	// name ↑; names are unique), which is the first element a sort by the
	// same order would produce.
	var best *SiteLoad
	var bestScore float64
	for i := range loads {
		l := &loads[i]
		if !(l.EstFreeCPUs >= cpus && l.Headroom >= float64(cpus)) {
			continue
		}
		s := score(l)
		if best != nil {
			better := s > bestScore
			if s == bestScore {
				better = l.EstFreeCPUs > best.EstFreeCPUs ||
					l.EstFreeCPUs == best.EstFreeCPUs && l.Name < best.Name
			}
			if !better {
				continue
			}
		}
		best, bestScore = l, s
	}
	if best == nil {
		return "", false
	}
	return best.Name, true
}

package gruber

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"digruber/internal/grid"
	"digruber/internal/usla"
	"digruber/internal/vtime"
)

// The reference below is the engine's read path as it stood before the
// resolved-policy / expiry-heap rewrite, kept deliberately naive and
// sharing no code with what it checks: the USLA walk re-reads
// PolicySet.Entries() per level per site with the arithmetic in its
// original order, consumer paths are dotted strings split here, and a
// site's dynamic state is a plain list of dispatches filtered by expiry
// whenever it is read. TestSiteLoadsMatchesReference drives both with
// one seeded schedule and demands bit-equal answers after every step.

// refPrefixes is usla.ParsePath + Prefixes + String on dotted strings:
// "a.b.c" → [a, a.b, a.b.c], nil for a path that does not parse.
func refPrefixes(owner string) []string {
	parts := strings.Split(strings.TrimSpace(owner), ".")
	if len(parts) > 3 {
		return nil
	}
	var out []string
	for i, p := range parts {
		if p == "" {
			return nil
		}
		out = append(out, strings.Join(parts[:i+1], "."))
	}
	return out
}

// refLimitsFor is the parent's PolicySet.LimitsFor computed from the
// entry list: per kind the latest wildcard entry, overridden by the
// latest provider-specific one; target defaults to the cap, the cap to
// 100%, the lower limit to 0%.
func refLimitsFor(entries []usla.Entry, provider, consumer string) (target, upper, lower float64) {
	type limits struct {
		v   [3]float64
		has [3]bool
	}
	var any, own limits
	for _, e := range entries {
		if e.Resource != usla.CPU || e.Consumer.String() != consumer {
			continue
		}
		l := &any
		switch e.Provider {
		case usla.AnyProvider:
		case provider:
			l = &own
		default:
			continue
		}
		l.v[e.Share.Kind], l.has[e.Share.Kind] = e.Share.Percent, true
	}
	merged := any
	for k := range own.v {
		if own.has[k] {
			merged.v[k], merged.has[k] = own.v[k], true
		}
	}
	target, upper, lower = 100, 100, 0
	if merged.has[usla.UpperLimit] {
		upper = merged.v[usla.UpperLimit]
		target = upper
	}
	if merged.has[usla.Target] {
		target = merged.v[usla.Target]
	}
	if merged.has[usla.LowerLimit] {
		lower = merged.v[usla.LowerLimit]
	}
	return target, upper, lower
}

// refEngine is the naive model of one engine.
type refEngine struct {
	name  string
	sites map[string]*refSite
	order []string
	seen  map[string]bool
}

type refSite struct {
	base grid.Status
	list []Dispatch
}

func (r *refEngine) updateSites(statuses []grid.Status, at time.Time) {
	for _, st := range statuses {
		s, ok := r.sites[st.Name]
		if !ok {
			s = &refSite{}
			r.sites[st.Name] = s
			r.order = append(r.order, st.Name)
		}
		s.base = st
		var kept []Dispatch
		for _, d := range s.list {
			if d.At.After(at) {
				kept = append(kept, d)
			}
		}
		s.list = kept
	}
	sort.Strings(r.order)
}

func (r *refEngine) record(d Dispatch) {
	if r.seen[d.JobID] {
		return
	}
	r.seen[d.JobID] = true
	if s, ok := r.sites[d.Site]; ok {
		s.list = append(s.list, d)
	}
}

func (r *refEngine) mergeRemote(ds []Dispatch, now time.Time) {
	for _, d := range ds {
		if d.Origin == r.name || r.seen[d.JobID] {
			continue
		}
		r.seen[d.JobID] = true
		if s, ok := r.sites[d.Site]; ok && !now.After(d.At.Add(d.Runtime)) {
			s.list = append(s.list, d)
		}
	}
}

func (r *refEngine) dropDynamicState() {
	for _, s := range r.sites {
		s.list = nil
	}
	r.seen = map[string]bool{}
}

// live drops what has expired at now and returns the rest.
func (s *refSite) live(now time.Time) []Dispatch {
	var kept []Dispatch
	for _, d := range s.list {
		if !now.After(d.At.Add(d.Runtime)) {
			kept = append(kept, d)
		}
	}
	s.list = kept
	return kept
}

func (r *refEngine) pending(now time.Time) int {
	n := 0
	for _, s := range r.sites {
		n += len(s.live(now))
	}
	return n
}

// siteLoads is the parent's Engine.SiteLoads: per site, the Headroom
// walk and then the TargetGap walk, each resolving limits level by level.
func (r *refEngine) siteLoads(entries []usla.Entry, owner string, now time.Time) []SiteLoad {
	var out []SiteLoad
	for _, name := range r.order {
		s := r.sites[name]
		used := 0
		delta := map[string]int{}
		for _, d := range s.live(now) {
			used += d.CPUs
			for _, p := range refPrefixes(d.Owner) {
				delta[p] += d.CPUs
			}
		}
		usage := func(p string) float64 { return float64(s.base.UsageByPath[p] + delta[p]) }
		free := s.base.FreeCPUs - used
		if free < 0 {
			free = 0
		}
		if free > s.base.TotalCPUs {
			free = s.base.TotalCPUs
		}
		capacity := float64(s.base.TotalCPUs)

		room, scope := capacity, capacity
		for _, prefix := range refPrefixes(owner) {
			_, upper, _ := refLimitsFor(entries, name, prefix)
			scope *= upper / 100
			if r := scope - usage(prefix); r < room {
				room = r
			}
		}
		if room < 0 {
			room = 0
		}
		entTarget := capacity
		for _, prefix := range refPrefixes(owner) {
			target, _, _ := refLimitsFor(entries, name, prefix)
			entTarget *= target / 100
		}
		out = append(out, SiteLoad{
			Name: name, TotalCPUs: s.base.TotalCPUs, EstFreeCPUs: free,
			Headroom: room, TargetGap: entTarget - usage(owner),
		})
	}
	return out
}

// refSelect is the parent's USLAAware.Select: filter, sort, take the first.
func refSelect(loads []SiteLoad, cpus int) (string, bool) {
	qualified := make([]SiteLoad, 0, len(loads))
	for _, l := range loads {
		if l.EstFreeCPUs >= cpus && l.Headroom >= float64(cpus) {
			qualified = append(qualified, l)
		}
	}
	if len(qualified) == 0 {
		return "", false
	}
	score := func(l SiteLoad) float64 {
		if free := float64(l.EstFreeCPUs); l.TargetGap > free {
			return free
		}
		return l.TargetGap
	}
	sort.Slice(qualified, func(i, j int) bool {
		a, b := qualified[i], qualified[j]
		if sa, sb := score(a), score(b); sa != sb {
			return sa > sb
		}
		if a.EstFreeCPUs != b.EstFreeCPUs {
			return a.EstFreeCPUs > b.EstFreeCPUs
		}
		return a.Name < b.Name
	})
	return qualified[0].Name, true
}

func TestSiteLoadsMatchesReference(t *testing.T) {
	for _, seed := range []int64{17, 2005} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { differentialRun(t, seed) })
	}
}

func differentialRun(t *testing.T, seed int64) {
	const nSites = 8
	rng := rand.New(rand.NewSource(seed))
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	ref := &refEngine{name: e.Name(), sites: map[string]*refSite{}, seen: map[string]bool{}}

	siteName := func(i int) string { return fmt.Sprintf("site-%03d", i) }
	// Depth 1, 2 and 3 owners, one the policies never mention, and two
	// dispatch owners that do not parse.
	queryOwners := []string{"atlas", "atlas.higgs", "atlas.higgs.alice", "cms", "cms.top", "cms.top.bob", "nopolicy.grp"}
	dispatchOwners := append([]string{"bad..owner", "a.b.c.d"}, queryOwners...)
	consumers := []string{"atlas", "atlas.higgs", "atlas.higgs.alice", "cms", "cms.top", "cms.top.bob"}
	percents := []float64{7, 12.5, 20, 33.3, 50, 66.6, 70, 100}
	usageKeys := []string{"atlas", "atlas.higgs", "cms", "cms.top.bob", "bad..key", " atlas", "cms.", ""}

	baseline := func(sites []int) []grid.Status {
		out := make([]grid.Status, len(sites))
		for k, i := range sites {
			out[k] = grid.Status{Name: siteName(i), TotalCPUs: 100, FreeCPUs: 60 + 10*rng.Intn(5), UsageByPath: map[string]int{}}
			for n := rng.Intn(4); n > 0; n-- {
				out[k].UsageByPath[usageKeys[rng.Intn(len(usageKeys))]] = rng.Intn(12)
			}
		}
		return out
	}
	update := func(sites []int, at time.Time) {
		st := baseline(sites)
		e.UpdateSites(st, at)
		ref.updateSites(st, at)
	}
	all := make([]int, nSites)
	for i := range all {
		all[i] = i
	}
	update(all, clock.Now())

	jobs := 0
	var issued []Dispatch
	dispatch := func() Dispatch {
		jobs++
		d := Dispatch{
			JobID:   fmt.Sprintf("j%04d", jobs),
			Site:    siteName(rng.Intn(nSites + 1)), // site-008 is unknown
			Owner:   dispatchOwners[rng.Intn(len(dispatchOwners))],
			CPUs:    1 + rng.Intn(4),
			Runtime: time.Duration(1+rng.Intn(6)) * time.Minute,
			At:      clock.Now().Add(-time.Duration(rng.Intn(3)) * time.Minute),
		}
		issued = append(issued, d)
		return d
	}

	check := func(step int, what string) {
		t.Helper()
		now := clock.Now()
		entries := e.policies.Entries()
		for _, owner := range queryOwners {
			got := e.SiteLoads(usla.MustParsePath(owner), 1)
			want := ref.siteLoads(entries, owner, now)
			if len(got) != len(want) {
				t.Fatalf("step %d (%s): %d loads, want %d", step, what, len(got), len(want))
			}
			for i := range got {
				g, w := got[i], want[i]
				if g.Name != w.Name || g.TotalCPUs != w.TotalCPUs || g.EstFreeCPUs != w.EstFreeCPUs ||
					math.Float64bits(g.Headroom) != math.Float64bits(w.Headroom) ||
					math.Float64bits(g.TargetGap) != math.Float64bits(w.TargetGap) {
					t.Fatalf("step %d (%s), owner %s:\n got  %+v\n want %+v", step, what, owner, g, w)
				}
				if free := e.EstFreeCPUs(g.Name); free != w.EstFreeCPUs {
					t.Fatalf("step %d (%s): EstFreeCPUs(%s) = %d, want %d", step, what, g.Name, free, w.EstFreeCPUs)
				}
			}
			for _, cpus := range []int{1, 3, 40} {
				gs, gok := (USLAAware{}).Select(got, cpus)
				ws, wok := refSelect(want, cpus)
				if gs != ws || gok != wok {
					t.Fatalf("step %d (%s), owner %s, %d CPUs: selected %q/%t, want %q/%t", step, what, owner, cpus, gs, gok, ws, wok)
				}
			}
		}
		if got, want := e.PendingDispatches(), ref.pending(now); got != want {
			t.Fatalf("step %d (%s): %d pending dispatches, want %d", step, what, got, want)
		}
	}

	for step := 0; step < 500; step++ {
		var what string
		switch k := rng.Intn(100); {
		case k < 35:
			what = "RecordDispatch"
			d := dispatch()
			e.RecordDispatch(d)
			ref.record(d)
		case k < 50:
			what = "MergeRemote"
			batch := make([]Dispatch, 1+rng.Intn(5))
			for i := range batch {
				switch {
				case len(issued) > 0 && rng.Intn(5) == 0:
					batch[i] = issued[rng.Intn(len(issued))] // a JobID seen before
				default:
					batch[i] = dispatch()
				}
				batch[i].Origin = []string{"dp-peer", "dp-peer", e.Name()}[rng.Intn(3)]
				if rng.Intn(6) == 0 {
					batch[i].At = batch[i].At.Add(-10 * time.Minute) // finished long ago
				}
				if rng.Intn(8) == 0 {
					// A peer's record is folded as given, negative CPUs
					// included: the per-level sums must stay exact.
					batch[i].CPUs = -batch[i].CPUs
				}
			}
			e.MergeRemote(batch)
			ref.mergeRemote(batch, clock.Now())
		case k < 60:
			what = "UpdateSites"
			sites := all
			if rng.Intn(2) == 0 {
				sites = rng.Perm(nSites)[:1+rng.Intn(nSites-1)]
			}
			// At a whole minute, so some dispatches sit exactly at the
			// snapshot time (dropped: not strictly newer).
			update(sites, clock.Now().Add(-time.Duration(rng.Intn(3))*time.Minute))
		case k < 82:
			// Whole minutes, like every At and Runtime: now lands exactly on
			// expiries, where a dispatch must still count.
			what = "Advance"
			clock.Advance(time.Duration(1+rng.Intn(3)) * time.Minute)
		case k < 98:
			what = "Policies.Add"
			provider := usla.AnyProvider
			if rng.Intn(2) == 0 {
				provider = siteName(rng.Intn(nSites))
			}
			entry := usla.Entry{
				Provider: provider,
				Consumer: usla.MustParsePath(consumers[rng.Intn(len(consumers))]),
				Resource: usla.CPU,
				Share:    usla.Share{Percent: percents[rng.Intn(len(percents))], Kind: usla.ShareKind(rng.Intn(3))},
			}
			what += " " + entry.String()
			if err := e.policies.Add(entry); err != nil {
				t.Fatal(err)
			}
		default:
			what = "DropDynamicState"
			e.DropDynamicState()
			ref.dropDynamicState()
		}
		check(step, what)
	}
	if st := e.Stats(); st.ExpiredPruned == 0 || st.DuplicateIgnored == 0 {
		t.Fatalf("the schedule never expired or repeated a dispatch: %+v", st)
	}
}

// TestUSLAAwareSelectMatchesSort: the one-pass selector against the
// sort it replaced, over loads drawn from so few values that ties on the
// score, on the score and the free CPUs, and on everything but the name
// are the common case.
func TestUSLAAwareSelectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 2000; round++ {
		loads := make([]SiteLoad, rng.Intn(12))
		for i, p := range rng.Perm(len(loads)) {
			loads[i] = SiteLoad{
				Name:        fmt.Sprintf("site-%03d", p),
				TotalCPUs:   100,
				EstFreeCPUs: rng.Intn(4),
				Headroom:    float64(rng.Intn(4)),
				TargetGap:   float64(rng.Intn(5) - 1),
			}
		}
		cpus := rng.Intn(3)
		gs, gok := (USLAAware{}).Select(loads, cpus)
		ws, wok := refSelect(loads, cpus)
		if gs != ws || gok != wok {
			t.Fatalf("round %d, %d CPUs over %+v: selected %q/%t, want %q/%t", round, cpus, loads, gs, gok, ws, wok)
		}
	}
}

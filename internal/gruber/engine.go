// Package gruber implements the GRUBER broker the paper builds DI-GRUBER
// on: the engine that maintains a USLA-constrained view of grid resource
// utilization, and the site selectors that answer "which is the best
// site at which I can run this job?".
//
// The engine follows the paper's chosen dissemination model (Section
// 3.5, second approach): every decision point has complete static
// knowledge of the grid's resources, while dynamic utilization is
// estimated from the scheduling decisions it observes — its own
// dispatches plus those reported by peer decision points. A dispatch is
// assumed to occupy its CPUs for the job's declared runtime and expires
// from the view afterwards.
package gruber

import (
	"container/heap"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"digruber/internal/grid"
	"digruber/internal/usla"
	"digruber/internal/vtime"
)

// Dispatch records one scheduling decision: a job placed at a site. It is
// both the unit of intra-engine bookkeeping and the unit of information
// decision points exchange.
type Dispatch struct {
	JobID string
	Site  string
	// Owner is the dotted consumer path.
	Owner string
	CPUs  int
	// Runtime is the job's declared runtime; the engine expires the
	// dispatch from its utilization estimate after Runtime elapses.
	Runtime time.Duration
	// At is when the dispatch happened.
	At time.Time
	// Origin is the decision point that brokered the job.
	Origin string
	// Seq is the record's position in its origin's dispatch log, assigned
	// by the origin engine at append time (1-based; 0 means unstamped —
	// a record from a build that predates per-origin logs). Together with
	// Origin it names the record globally, which is what lets gossip
	// relay third-party records and deduplicate them with a version
	// vector instead of per-peer cursors. Appended as the struct's last
	// field: gob's value encoding elides zero fields, so records without
	// it stay byte-identical to older builds (see TestDispatchWireCompat).
	Seq uint64
}

// Expired reports whether the dispatched job should be assumed finished.
func (d Dispatch) Expired(now time.Time) bool {
	return now.After(d.At.Add(d.Runtime))
}

// SiteLoad is the engine's answer for one candidate site, as shipped to
// site selectors: estimated availability plus the USLA evaluation for
// the requesting consumer.
type SiteLoad struct {
	Name      string
	TotalCPUs int
	// EstFreeCPUs is the engine's estimate of free CPUs (capacity minus
	// unexpired dispatches against the last known baseline).
	EstFreeCPUs int
	// Headroom is the USLA hard (upper-limit) headroom for the consumer
	// at this site, in CPUs.
	Headroom float64
	// TargetGap is how far under (+) or over (−) fair-share target the
	// consumer is at this site, in CPUs.
	TargetGap float64
}

// Engine is the GRUBER engine: one decision point's view of the grid.
type Engine struct {
	name  string
	clock vtime.Clock

	mu       sync.RWMutex
	policies *usla.PolicySet
	sites    map[string]*siteView
	order    []string
	// pending holds exactly the dispatches the site views' sums count,
	// all sites together, earliest expiry first.
	pending dispatchHeap
	seen    map[string]time.Time // JobID → expiry, for exchange dedup
	// seenSweepAt is the size of seen at which markSeenLocked next sweeps
	// it for expired JobIDs.
	seenSweepAt int
	// logs holds one dispatch log per origin decision point: this
	// engine's own brokered dispatches (origin == name, backing the
	// classic exchange cursor API) plus, under gossip dissemination,
	// relayed third-party records (see relaylog.go). Each log is one
	// contiguous run of sequence-numbered records.
	logs  map[string]*originLog
	stats EngineStats
	// queries is stats.Queries: SiteLoads counts under the read lock.
	queries atomic.Int64
	// appender is the write-ahead hook (see SetAppender in durable.go):
	// called under e.mu for every dispatch record entering dynamic
	// state, in mutation order. Nil when durability is off. ticket is
	// the last one it handed back: whoever waits for it has waited for
	// every record the engine holds.
	appender func(d Dispatch, logged bool) Ticket
	ticket   Ticket
}

// EngineStats counts engine activity.
type EngineStats struct {
	Queries           int64
	LocalDispatches   int64
	RemoteDispatches  int64
	DuplicateIgnored  int64
	ExpiredPruned     int64
	BaselineRefreshes int64
}

// siteView is one site's baseline plus the sums of the pending
// dispatches newer than it — CPUs in total and per consumer path level —
// so a query reads a site without walking anything.
type siteView struct {
	base       grid.Status
	baseAt     time.Time
	baseUsage  map[usla.Path]int // base.UsageByPath, keys parsed once
	usedDelta  int
	usageDelta map[usla.Path]int
}

// pendingDispatch is one dispatch in a site view with what folding and
// pruning it need, resolved once: its expiry, its site and its parsed
// owner (the zero Path when Owner does not parse — such a dispatch
// occupies CPUs but counts against no consumer).
type pendingDispatch struct {
	Dispatch
	expiry time.Time
	sv     *siteView
	owner  usla.Path
}

// dispatchHeap orders pending dispatches by expiry time.
type dispatchHeap []pendingDispatch

func (h dispatchHeap) Len() int            { return len(h) }
func (h dispatchHeap) Less(i, j int) bool  { return h[i].expiry.Before(h[j].expiry) }
func (h dispatchHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *dispatchHeap) Push(x interface{}) { *h = append(*h, x.(pendingDispatch)) }
func (h *dispatchHeap) Pop() interface{} {
	old := *h
	n := len(old)
	d := old[n-1]
	*h = old[:n-1]
	return d
}

// NewEngine returns an engine named name (the decision point identity
// used as dispatch Origin) with the given USLA policy set.
func NewEngine(name string, policies *usla.PolicySet, clock vtime.Clock) *Engine {
	if policies == nil {
		policies = usla.NewPolicySet()
	}
	return &Engine{
		name:        name,
		clock:       clock,
		policies:    policies,
		sites:       make(map[string]*siteView),
		seen:        make(map[string]time.Time),
		seenSweepAt: seenSweepFloor,
		logs:        make(map[string]*originLog),
	}
}

// Name returns the engine's identity.
func (e *Engine) Name() string { return e.name }

// UpdateSites installs or refreshes the baseline view of sites from a
// grid snapshot. The initial call is the paper's "complete static
// knowledge about available resources"; later calls re-baseline the
// dynamic estimate (dispatches at or before the snapshot are dropped,
// since the snapshot already reflects them).
func (e *Engine) UpdateSites(statuses []grid.Status, at time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.BaselineRefreshes++
	rebased := make(map[*siteView]bool, len(statuses))
	for _, st := range statuses {
		sv, ok := e.sites[st.Name]
		if !ok {
			sv = &siteView{}
			e.sites[st.Name] = sv
			e.order = append(e.order, st.Name)
		}
		sv.base = st
		sv.baseAt = at
		sv.baseUsage = usageByPath(st.UsageByPath)
		sv.usedDelta = 0
		sv.usageDelta = make(map[usla.Path]int)
		rebased[sv] = true
	}
	// Re-apply only dispatches strictly newer than the snapshot.
	kept := e.pending[:0]
	for _, p := range e.pending {
		if rebased[p.sv] {
			if !p.At.After(at) {
				continue
			}
			p.fold(+1)
		}
		kept = append(kept, p)
	}
	clear(e.pending[len(kept):])
	e.pending = kept
	heap.Init(&e.pending)
	sort.Strings(e.order)
}

// usageByPath re-keys a baseline's UsageByPath (dotted strings, a wire
// type) by parsed path, adopting only keys that some owner's String
// renders: no key that missed every query as a string matches one now.
func usageByPath(dotted map[string]int) map[usla.Path]int {
	keys := make([]string, 0, len(dotted))
	for k := range dotted {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make(map[usla.Path]int, len(keys))
	for _, k := range keys {
		if p, err := usla.ParsePath(k); err == nil && p.String() == k {
			out[p] = dotted[k]
		}
	}
	return out
}

// fold adds the dispatch to (sign +1) or takes it out of (−1) its site
// view's sums. Caller holds e.mu for writing.
func (p *pendingDispatch) fold(sign int) {
	p.sv.usedDelta += sign * p.CPUs
	levels, n := p.owner.Levels()
	for _, level := range levels[:n] {
		if p.sv.usageDelta[level] += sign * p.CPUs; sign < 0 && p.sv.usageDelta[level] <= 0 {
			delete(p.sv.usageDelta, level)
		}
	}
}

// pruneLocked drops the dispatches whose jobs are assumed finished at
// now. The merges call it while they hold e.mu anyway, so a reader that
// follows one finds nothing due. Caller holds e.mu for writing.
func (e *Engine) pruneLocked(now time.Time) {
	for e.dueLocked(now) {
		p := heap.Pop(&e.pending).(pendingDispatch)
		p.fold(-1)
		e.stats.ExpiredPruned++
	}
}

// dueLocked reports whether the earliest pending dispatch has expired,
// as strictly as Dispatch.Expired. Caller holds e.mu, at least to read.
func (e *Engine) dueLocked(now time.Time) bool {
	return len(e.pending) > 0 && now.After(e.pending[0].expiry)
}

// estFree is the view's free-CPU estimate. Caller holds e.mu.
func (sv *siteView) estFree() int {
	free := sv.base.FreeCPUs - sv.usedDelta
	if free < 0 {
		free = 0
	}
	if free > sv.base.TotalCPUs {
		free = sv.base.TotalCPUs
	}
	return free
}

// SiteLoads evaluates every known site for a job of the given owner and
// CPU demand. The returned slice is sorted by site name; selectors apply
// their own ranking. The owner's USLA is resolved once and every site is
// then read under the read lock, so concurrent queries run in parallel;
// the write lock is taken only when a pending dispatch is due to expire.
func (e *Engine) SiteLoads(owner usla.Path, cpus int) []SiteLoad {
	return e.AppendSiteLoads(nil, owner, cpus)
}

// AppendSiteLoads is SiteLoads appended to dst, for a caller that owns
// storage to build the result in; the engine keeps no reference to it.
func (e *Engine) AppendSiteLoads(dst []SiteLoad, owner usla.Path, cpus int) []SiteLoad {
	now := e.clock.Now()
	e.queries.Add(1)
	policy := e.policies.Resolve(owner, usla.CPU)
	levels, depth := owner.Levels()
	e.mu.RLock()
	if e.dueLocked(now) {
		e.mu.RUnlock()
		e.mu.Lock()
		e.pruneLocked(now)
		e.mu.Unlock()
		e.mu.RLock()
	}
	defer e.mu.RUnlock()
	// Room for every site at once, sized exactly; for a nil dst also when
	// there are no sites, so that SiteLoads stays empty and never nil.
	out := dst
	if n := len(e.order); out == nil || cap(out)-len(out) < n {
		out = append(make([]SiteLoad, 0, len(dst)+n), dst...)
	}
	for _, name := range e.order {
		sv := e.sites[name]
		var used [3]float64
		var own float64 // usage at the owner's own level, the last one
		for l, level := range levels[:depth] {
			own = float64(sv.baseUsage[level] + sv.usageDelta[level])
			used[l] = own
		}
		ent, headroom := policy.Evaluate(name, float64(sv.base.TotalCPUs), used)
		out = append(out, SiteLoad{
			Name:        name,
			TotalCPUs:   sv.base.TotalCPUs,
			EstFreeCPUs: sv.estFree(),
			Headroom:    headroom,
			TargetGap:   ent.Target - own,
		})
	}
	return out
}

// foldLocked folds d into its site's view (the pending heap plus the
// site's CPU and per-owner usage sums), parsing its owner once for the
// dispatch's whole stay. It reports false, changing nothing, for a site
// the engine does not know. Caller holds e.mu.
func (e *Engine) foldLocked(d Dispatch) bool {
	sv, ok := e.sites[d.Site]
	if ok {
		// An unparsable owner leaves the zero Path: no level to count against.
		owner, _ := usla.ParsePath(d.Owner)
		p := pendingDispatch{Dispatch: d, expiry: d.At.Add(d.Runtime), sv: sv, owner: owner}
		p.fold(+1)
		heap.Push(&e.pending, p)
	}
	return ok
}

// foldRemoteLocked counts a record newly learned from another engine and
// folds it into the view unless its job is already assumed finished
// (stale news). It reports whether the view changed. Caller holds e.mu.
func (e *Engine) foldRemoteLocked(d Dispatch, now time.Time) bool {
	e.stats.RemoteDispatches++
	return !d.Expired(now) && e.foldLocked(d)
}

// RecordDispatch folds a locally-brokered dispatch into the view and the
// exchange log. The engine stamps itself as Origin and assigns the
// record's sequence number in its own dispatch log. With a write-ahead
// hook installed it returns once the record is on stable storage, or
// with the error of the commit that refused it: the Schedule/Report
// handler acks only after a nil return, so an acked dispatch is always
// durable (zero acked-dispatch loss across a crash). A refused record
// stays in the view and the log, unacked (DESIGN.md, "The commit path").
func (e *Engine) RecordDispatch(d Dispatch) error {
	d.Origin = e.name
	e.mu.Lock()
	if e.markSeenLocked(d) {
		e.stats.LocalDispatches++
		l := e.logLocked(e.name)
		d.Seq = l.hi() + 1 // the own log is the numbering authority
		l.insert(d)
		e.appendLocked(d, true)
		e.foldLocked(d)
	}
	// A duplicate waits too: the first copy may still be in the queue.
	t := e.ticket
	e.mu.Unlock()
	return durable(t)
}

// MergeRemote folds dispatches received from a peer decision point into
// the view. Duplicates (already seen JobIDs) are ignored, making the
// flooding exchange idempotent.
func (e *Engine) MergeRemote(dispatches []Dispatch) int {
	now := e.clock.Now()
	e.mu.Lock()
	e.pruneLocked(now)
	merged := 0
	for _, d := range dispatches {
		if d.Origin == e.name {
			continue // our own records echoed back
		}
		if !e.markSeenLocked(d) {
			continue
		}
		e.appendLocked(d, false)
		if e.foldRemoteLocked(d, now) {
			merged++
		}
	}
	e.unlockDurable()
	return merged
}

// seenSweepFloor is the dedup-set size below which expired JobIDs are
// never swept out.
const seenSweepFloor = 100000

// markSeenLocked registers a JobID, pruning the dedup set opportunistically.
// It returns false for duplicates. Caller holds e.mu.
func (e *Engine) markSeenLocked(d Dispatch) bool {
	if _, dup := e.seen[d.JobID]; dup {
		e.stats.DuplicateIgnored++
		return false
	}
	if len(e.seen) > e.seenSweepAt {
		now := e.clock.Now()
		//lint:allow mapiter -- expiry sweep deletes a fixed set of keys; order cannot matter
		for id, exp := range e.seen {
			if now.After(exp) {
				delete(e.seen, id)
			}
		}
		// A sweep visits the whole set, so the next one waits until the
		// set has doubled: with hour-long jobs the survivors can stay
		// above the floor for a long time, and sweeping on every insert
		// while they do makes each insert cost O(len(seen)).
		e.seenSweepAt = 2 * len(e.seen)
		if e.seenSweepAt < seenSweepFloor {
			e.seenSweepAt = seenSweepFloor
		}
	}
	e.seen[d.JobID] = d.At.Add(d.Runtime)
	return true
}

// LocalDispatchesAfter returns this engine's own dispatches recorded
// after the given sequence cursor, plus the cursor covering everything
// returned — the payload of one exchange round. Sequence numbers are
// assigned under the engine lock at append time, so the cursor cannot
// skip a record whose timestamp was stamped early but whose append lost
// a race (which a wall-clock cursor does).
func (e *Engine) LocalDispatchesAfter(cursor uint64) ([]Dispatch, uint64) {
	e.mu.RLock()
	l := e.logs[e.name]
	recs := l.after(cursor)
	out := make([]Dispatch, len(recs))
	copy(out, recs)
	hi := l.hi()
	e.rUnlockDurable()
	return out, hi
}

// LocalSeqHighWater returns the sequence number of the newest local
// dispatch record (0 when none has ever been recorded). A peer whose
// exchange cursor has reached this value holds everything this engine
// ever observed locally — the completeness proof a draining decision
// point needs before it may stop: its final flush is done only when
// every peer's acknowledged cursor is at or past this mark.
func (e *Engine) LocalSeqHighWater() uint64 {
	e.mu.RLock()
	hi := e.logs[e.name].hi()
	e.rUnlockDurable()
	return hi
}

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() EngineStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st := e.stats
	st.Queries = e.queries.Load()
	return st
}

// NumSites reports how many sites the engine knows about.
func (e *Engine) NumSites() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.order)
}

// EstFreeCPUs reports the engine's current free-CPU estimate for one
// site (0 for unknown sites) — used by tests and the accuracy metric's
// "what the broker believed" diagnostics.
func (e *Engine) EstFreeCPUs(site string) int {
	now := e.clock.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pruneLocked(now)
	sv, ok := e.sites[site]
	if !ok {
		return 0
	}
	return sv.estFree()
}

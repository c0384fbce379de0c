// Package gruber implements the GRUBER broker the paper builds DI-GRUBER
// on: the engine that maintains a USLA-constrained view of grid resource
// utilization, the site selectors that answer "which is the best site at
// which I can run this job?", and the queue manager that throttles
// submission hosts against VO policy.
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
	seen     map[string]time.Time // JobID → expiry, for exchange dedup
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
	// appender is the write-ahead hook (see SetAppender in durable.go):
	// called under e.mu for every dispatch record entering dynamic
	// state, in mutation order. Nil when durability is off.
	appender func(d Dispatch, logged bool)
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

type siteView struct {
	base   grid.Status
	baseAt time.Time
	// pending tracks unexpired dispatches newer than the baseline.
	pending    dispatchHeap
	usedDelta  int
	usageDelta map[string]int
}

// dispatchHeap orders dispatches by expiry time.
type dispatchHeap []Dispatch

func (h dispatchHeap) Len() int { return len(h) }
func (h dispatchHeap) Less(i, j int) bool {
	return h[i].At.Add(h[i].Runtime).Before(h[j].At.Add(h[j].Runtime))
}
func (h dispatchHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *dispatchHeap) Push(x interface{}) { *h = append(*h, x.(Dispatch)) }
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

// Policies returns the engine's USLA policy set (live; additions take
// effect immediately).
func (e *Engine) Policies() *usla.PolicySet { return e.policies }

// UpdateSites installs or refreshes the baseline view of sites, as a
// monitor.Sink. The initial call is the paper's "complete static
// knowledge about available resources"; later calls re-baseline the
// dynamic estimate (dispatches at or before the snapshot are dropped,
// since the snapshot already reflects them).
func (e *Engine) UpdateSites(statuses []grid.Status, at time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.BaselineRefreshes++
	for _, st := range statuses {
		sv, ok := e.sites[st.Name]
		if !ok {
			sv = &siteView{usageDelta: make(map[string]int)}
			e.sites[st.Name] = sv
			e.order = append(e.order, st.Name)
		}
		sv.base = st
		sv.baseAt = at
		// Re-apply only dispatches strictly newer than the snapshot.
		old := sv.pending
		sv.pending = nil
		sv.usedDelta = 0
		sv.usageDelta = make(map[string]int)
		for _, d := range old {
			if d.At.After(at) {
				sv.applyLocked(d)
			}
		}
	}
	sort.Strings(e.order)
}

// applyLocked folds a dispatch into the view. Caller holds e.mu.
// Dispatch ingest reaches it through Engine.foldLocked only.
func (sv *siteView) applyLocked(d Dispatch) {
	heap.Push(&sv.pending, d)
	sv.usedDelta += d.CPUs
	if p, err := usla.ParsePath(d.Owner); err == nil {
		for _, prefix := range p.Prefixes() {
			sv.usageDelta[prefix.String()] += d.CPUs
		}
	}
}

// pruneLocked drops expired dispatches from the view. Caller holds e.mu.
func (sv *siteView) pruneLocked(now time.Time, stats *EngineStats) {
	for len(sv.pending) > 0 && sv.pending[0].Expired(now) {
		d := heap.Pop(&sv.pending).(Dispatch)
		sv.usedDelta -= d.CPUs
		if p, err := usla.ParsePath(d.Owner); err == nil {
			for _, prefix := range p.Prefixes() {
				sv.usageDelta[prefix.String()] -= d.CPUs
				if sv.usageDelta[prefix.String()] <= 0 {
					delete(sv.usageDelta, prefix.String())
				}
			}
		}
		stats.ExpiredPruned++
	}
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
// their own ranking.
func (e *Engine) SiteLoads(owner usla.Path, cpus int) []SiteLoad {
	now := e.clock.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.Queries++
	out := make([]SiteLoad, 0, len(e.order))
	for _, name := range e.order {
		sv := e.sites[name]
		sv.pruneLocked(now, &e.stats)
		usage := func(p usla.Path) float64 {
			return float64(sv.base.UsageByPath[p.String()] + sv.usageDelta[p.String()])
		}
		capacity := float64(sv.base.TotalCPUs)
		out = append(out, SiteLoad{
			Name:        name,
			TotalCPUs:   sv.base.TotalCPUs,
			EstFreeCPUs: sv.estFree(),
			Headroom:    e.policies.Headroom(name, owner, usla.CPU, capacity, usage),
			TargetGap:   e.policies.TargetGap(name, owner, usla.CPU, capacity, usage),
		})
	}
	return out
}

// foldLocked folds d into its site's view (pending heap plus CPU and
// per-owner usage deltas). It reports false, changing nothing, for a
// site the engine does not know. Caller holds e.mu.
func (e *Engine) foldLocked(d Dispatch) bool {
	sv, ok := e.sites[d.Site]
	if ok {
		sv.applyLocked(d)
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
// record's sequence number in its own dispatch log.
func (e *Engine) RecordDispatch(d Dispatch) {
	d.Origin = e.name
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.markSeenLocked(d) {
		return
	}
	e.stats.LocalDispatches++
	l := e.logLocked(e.name)
	d.Seq = l.hi() + 1 // the own log is the numbering authority
	l.insert(d)
	// Write-ahead append happens before RecordDispatch returns: the
	// Schedule/Report handler only acks after this, so an acked dispatch
	// is always durable (zero acked-dispatch loss across a crash).
	e.appendLocked(d, true)
	e.foldLocked(d)
}

// MergeRemote folds dispatches received from a peer decision point into
// the view. Duplicates (already seen JobIDs) are ignored, making the
// flooding exchange idempotent.
func (e *Engine) MergeRemote(dispatches []Dispatch) int {
	now := e.clock.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
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
	defer e.mu.RUnlock()
	l := e.logs[e.name]
	recs := l.after(cursor)
	out := make([]Dispatch, len(recs))
	copy(out, recs)
	return out, l.hi()
}

// LocalSeqHighWater returns the sequence number of the newest local
// dispatch record (0 when none has ever been recorded). A peer whose
// exchange cursor has reached this value holds everything this engine
// ever observed locally — the completeness proof a draining decision
// point needs before it may stop: its final flush is done only when
// every peer's acknowledged cursor is at or past this mark.
func (e *Engine) LocalSeqHighWater() uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.logs[e.name].hi()
}

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() EngineStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.stats
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
	sv, ok := e.sites[site]
	if !ok {
		return 0
	}
	sv.pruneLocked(now, &e.stats)
	return sv.estFree()
}

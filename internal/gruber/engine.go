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
	// it stay byte-identical to older builds (see internal/digruber's
	// TestWireGolden).
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
	seen    map[string]seenEntry // JobID → its latest record's site and expiry
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
	Queries          int64
	LocalDispatches  int64
	RemoteDispatches int64
	DuplicateIgnored int64
	ExpiredPruned    int64
}

// siteView is one site's baseline plus the sums of the pending
// dispatches newer than it — CPUs in total and per consumer path level —
// so a query reads a site without walking anything.
type siteView struct {
	base       grid.Status
	baseUsage  map[usla.Path]int // base.UsageByPath, keys parsed once
	usedDelta  int
	usageDelta map[usla.Path]int
}

// seenEntry is what the dedup set keeps for a JobID: the site its
// latest record placed it at and that record's expiry, in nanoseconds
// since the Unix epoch (saturating, as time.Time.Sub does) — 24 bytes,
// no more than a time.Time expiry alone.
type seenEntry struct {
	expiry int64
	site   string
}

// unixEpoch is what seenEntry expiries count from.
var unixEpoch = time.Unix(0, 0)

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

// later reports whether a is the later of two records for one job: by
// At, then Origin, then Seq. A re-planned job's later record is the one
// that places it.
func later(a, b Dispatch) bool {
	if !a.At.Equal(b.At) {
		return a.At.After(b.At)
	}
	if a.Origin != b.Origin {
		return a.Origin > b.Origin
	}
	return a.Seq > b.Seq
}

// dispatchHeap orders pending dispatches by expiry time: a binary
// min-heap kept by the same steps as container/heap, so that dispatches
// with equal expiries leave in the same order, but on the element type
// itself — container/heap moves each element in and out through an
// interface, which boxes it.
type dispatchHeap []pendingDispatch

func (h dispatchHeap) less(i, j int) bool { return h[i].expiry.Before(h[j].expiry) }

// init establishes the heap order over the whole slice.
func (h dispatchHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i, len(h))
	}
}

func (h *dispatchHeap) push(p pendingDispatch) {
	*h = append(*h, p)
	h.up(len(*h) - 1)
}

// pop removes and returns the earliest expiry.
func (h *dispatchHeap) pop() pendingDispatch {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old[:n].down(0, n)
	p := old[n]
	old[n] = pendingDispatch{} // the heap does not pin what it handed out
	*h = old[:n]
	return p
}

// remove takes out element i, as container/heap.Remove does.
func (h *dispatchHeap) remove(i int) {
	old := *h
	n := len(old) - 1
	if i != n {
		old[i], old[n] = old[n], old[i]
		old[:n].down(i, n)
		old[:n].up(i)
	}
	old[n] = pendingDispatch{}
	*h = old[:n]
}

func (h dispatchHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h dispatchHeap) down(i, n int) {
	for {
		j := 2*i + 1
		if j >= n || j < 0 { // j < 0 after int overflow
			break
		}
		if j2 := j + 1; j2 < n && h.less(j2, j) {
			j = j2 // the right child is earlier
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
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
		seen:        make(map[string]seenEntry),
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
	rebased := make(map[*siteView]bool, len(statuses))
	for _, st := range statuses {
		sv, ok := e.sites[st.Name]
		if !ok {
			sv = &siteView{}
			e.sites[st.Name] = sv
			e.order = append(e.order, st.Name)
		}
		sv.base = st
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
	e.pending.init()
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
// view's sums. The sums are exact: a peer record is folded as given, so
// one with negative CPUs can take a level below zero, and its expiry
// must find that sum as it left it. A decrease that leaves a level at
// exactly zero deletes its entry. Caller holds e.mu for writing.
func (p *pendingDispatch) fold(sign int) {
	d := sign * p.CPUs
	p.sv.usedDelta += d
	levels, n := p.owner.Levels()
	for _, level := range levels[:n] {
		if p.sv.usageDelta[level] += d; d < 0 && p.sv.usageDelta[level] == 0 {
			delete(p.sv.usageDelta, level)
		}
	}
}

// pruneLocked drops the dispatches whose jobs are assumed finished at
// now. The merges call it while they hold e.mu anyway, so a reader that
// follows one finds nothing due. Caller holds e.mu for writing.
func (e *Engine) pruneLocked(now time.Time) {
	for e.dueLocked(now) {
		p := e.pending.pop()
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
		e.pending.push(p)
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
// record's sequence number in its own dispatch log. A record for a job
// held at another site moves it there (see markSeenLocked). With a
// write-ahead hook installed it returns once the record is on stable storage, or
// with the error of the commit that refused it: the Schedule/Report
// handler acks only after a nil return, so an acked dispatch is always
// durable (zero acked-dispatch loss across a crash). A refused record
// stays in the view and the log, unacked (DESIGN.md, "The commit path").
func (e *Engine) RecordDispatch(d Dispatch) error {
	d.Origin = e.name
	e.mu.Lock()
	// Stamped before the dedup, so a re-plan through this point in the
	// same instant is later than the record it moves.
	d.Seq = e.logs[e.name].hi() + 1 // the own log is the numbering authority
	if e.markSeenLocked(d) {
		e.stats.LocalDispatches++
		e.logLocked(e.name).insert(d)
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

// markSeenLocked registers a JobID, pruning the dedup set opportunistically,
// and reports whether d enters the view. It returns false for a
// re-delivery to the same site (a duplicate) and for a record older than
// the one held at another site. A later record at another site is a
// re-planned job: the held record leaves the view, and only such a move
// scans the pending heap. Caller holds e.mu.
func (e *Engine) markSeenLocked(d Dispatch) bool {
	expiry := d.At.Add(d.Runtime).Sub(unixEpoch).Nanoseconds()
	if held, dup := e.seen[d.JobID]; dup {
		if held.site == d.Site || !e.supersedeLocked(d, held, expiry) {
			e.stats.DuplicateIgnored++
			return false
		}
	} else if len(e.seen) > e.seenSweepAt {
		now := e.clock.Now().Sub(unixEpoch).Nanoseconds()
		//lint:allow mapiter -- expiry sweep deletes a fixed set of keys; order cannot matter
		for id, s := range e.seen {
			if now > s.expiry {
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
	e.seen[d.JobID] = seenEntry{expiry: expiry, site: d.Site}
	return true
}

// supersedeLocked settles d against the record held for its job at
// another site and reports whether d is the later one; if it is, the
// held record leaves the view. A held record no longer in the view
// (expired, absorbed by a re-baseline, or at a site the engine does not
// know) is ordered by its expiry: the records of one job share its
// runtime, so expiry orders them as At does. Caller holds e.mu.
func (e *Engine) supersedeLocked(d Dispatch, held seenEntry, expiry int64) bool {
	for i := range e.pending {
		if p := &e.pending[i]; p.JobID == d.JobID {
			if !later(d, p.Dispatch) {
				return false
			}
			p.fold(-1)
			e.pending.remove(i)
			return true
		}
	}
	return expiry > held.expiry
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

// LocalExpiredThrough returns the own log's compacted floor when the
// records above its acknowledged floor left by expiry, and 0 otherwise.
// A peer whose cursor is at or past the acknowledged floor lacks only
// expired records below the returned value, and they change no view, so
// a drain's flush counts them as delivered. One that crashed or joined
// since sits below it and fast-forwards over the gap, as it does over
// any compacted prefix (originLog.insert). The flood never needs this:
// its acknowledgment covers the compacted floor itself. A gossip peer's
// digest only advances on a record it receives, so one that missed the
// records while they lived would otherwise hold the flush forever.
func (e *Engine) LocalExpiredThrough() uint64 {
	e.mu.RLock()
	var through uint64
	if l := e.logs[e.name]; l != nil && l.acked < l.dropped {
		through = l.dropped
	}
	e.rUnlockDurable()
	return through
}

// Stats returns a copy of the engine counters.
func (e *Engine) Stats() EngineStats {
	e.mu.RLock()
	defer e.mu.RUnlock()
	st := e.stats
	st.Queries = e.queries.Load()
	return st
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

package gruber

import (
	"sort"
	"time"

	"digruber/internal/usla"
)

// Why snapshots exist beside the incremental stream: the periodic
// exchange ships only what is new since a cursor, so a decision point
// that crashed and lost its dynamic state cannot catch up from it — the
// records it missed sit behind cursors it no longer holds. Pulling one
// peer's full unexpired view makes it as informed as that peer at once.

// ExportSnapshot returns every unexpired dispatch in the engine's view,
// in deterministic order (dispatch time, then JobID). Unlike the
// incremental exchange payload it is NOT filtered to locally-brokered
// records: the requester is assumed to have lost everything, including
// records this engine originally learned from the requester itself.
func (e *Engine) ExportSnapshot() []Dispatch { return e.ExportSnapshotSince(nil) }

// ExportSnapshotSince is the snapshot for a requester that already holds
// version vector vv: sequence-stamped dispatches the vector covers are
// omitted, so a durably-recovered decision point backfills only its
// seq-gap instead of re-importing everything it replayed from disk.
// Unstamped records (Seq 0) are always included — coverage cannot be
// proven for them, and the importer's dedup discards repeats. A nil
// vector covers nothing.
func (e *Engine) ExportSnapshotSince(vv map[string]uint64) []Dispatch {
	now := e.clock.Now()
	e.mu.Lock()
	out := e.viewLocked(now, func(d Dispatch) bool {
		return d.Seq == 0 || d.Origin == "" || d.Seq > vv[d.Origin]
	})
	e.unlockDurable()
	return out
}

// viewLocked returns the unexpired dispatches in the site views that
// keep accepts, ordered by dispatch time, then JobID. Caller holds e.mu.
func (e *Engine) viewLocked(now time.Time, keep func(Dispatch) bool) []Dispatch {
	e.pruneLocked(now)
	var out []Dispatch
	for _, p := range e.pending {
		if keep(p.Dispatch) {
			out = append(out, p.Dispatch)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].At.Equal(out[j].At) {
			return out[i].At.Before(out[j].At)
		}
		return out[i].JobID < out[j].JobID
	})
	return out
}

// ImportSnapshot folds a peer's full view into this engine. It differs
// from MergeRemote in one deliberate way: records whose Origin is this
// engine are NOT skipped — after a crash this engine has lost its own
// brokering history too, and the snapshot is how it gets it back. Seen
// JobIDs are still deduplicated, so importing on a healthy engine (or
// importing two overlapping snapshots) is idempotent. Returns the number
// of dispatches folded into site views.
func (e *Engine) ImportSnapshot(dispatches []Dispatch) int {
	now := e.clock.Now()
	e.mu.Lock()
	e.pruneLocked(now)
	merged := 0
	for _, d := range dispatches {
		logged := d.Origin == e.name && d.Seq > 0
		if logged {
			// Re-adopt own-origin records into the own log, duplicates
			// included: the own log is the numbering authority, and a
			// rejoining engine must never re-issue a sequence number peers
			// already hold for it — they could only read that as an origin
			// restart (MergeGossip's reset). Records may arrive in view
			// order rather than sequence order; the fast-forward still
			// leaves hi at the snapshot's own-origin maximum.
			e.logLocked(e.name).insert(d)
		}
		if !e.markSeenLocked(d) {
			continue
		}
		e.appendLocked(d, logged)
		if e.foldRemoteLocked(d, now) {
			merged++
		}
	}
	e.unlockDurable()
	return merged
}

// DropDynamicState models a crash: everything the engine learned from
// scheduling decisions — pending dispatches, the dedup set, the local
// exchange log and its sequence numbering — is discarded. The site
// baseline survives, standing in for the paper's "complete static
// knowledge about available resources", which a restarting decision
// point re-bootstraps from configuration rather than from peers.
// Cumulative stats counters are kept (they describe the process, not
// the state).
func (e *Engine) DropDynamicState() {
	e.mu.Lock()
	defer e.mu.Unlock()
	//lint:allow mapiter -- per-site state reset with no cross-site reads; order cannot matter
	for _, sv := range e.sites {
		sv.usedDelta = 0
		sv.usageDelta = make(map[usla.Path]int)
	}
	e.pending = nil
	e.seen = make(map[string]time.Time)
	e.seenSweepAt = seenSweepFloor
	// Every per-origin log goes, the engine's own included: the sequence
	// numbering restarts from 1 on the next dispatch, which peers detect
	// as an origin restart (see MergeGossip's reset path).
	e.logs = make(map[string]*originLog)
}

// PendingDispatches reports how many unexpired dispatches the engine
// currently tracks across all sites — a convergence probe for tests and
// status reporting.
func (e *Engine) PendingDispatches() int {
	now := e.clock.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pruneLocked(now)
	return len(e.pending)
}

package gruber

import "time"

// The engine knows nothing about logs on disk. It offers the digruber
// durability layer a write-ahead hook (SetAppender), a checkpoint image
// (CheckpointState) and the replay of both (RestoreState, RestoreRecord);
// DESIGN.md ("Replication paths") tabulates where each ingest path calls
// the hook and what replay does with a record, and "The commit path"
// follows a record from the hook to the disk.
//
// The disk is never waited for under the engine lock. The lock fixes
// the order — stamp, log insert, fold, hook — and the hook only queues
// the record and hands back a Ticket; the call that put records in
// releases the lock and then waits for its last ticket, so "the
// mutating call has returned" still means "its records are synced". A
// record is therefore in the view and the logs a moment before it is
// on disk, and every method that hands records or log positions out of
// the engine ends the same way, waiting for the last ticket issued:
// otherwise a point could export sequence number n, crash before the
// sync, recover at n-1 and stamp n on a different job, which peers can
// only read as an origin restart.
//
// Why the log floors are persisted: a recovered engine resumes its own
// numbering at the pre-crash high-water mark instead of restarting from
// 1, so peers see a continued incarnation (no MergeGossip reset, no
// renumbered duplicates) and the drain protocol's high-water promise
// survives the crash.

// OriginState is one origin's dispatch log as persisted in a checkpoint:
// the compaction floor plus the retained records (ascending, contiguous
// sequence numbers starting at Floor+1).
type OriginState struct {
	Origin  string
	Floor   uint64
	Records []Dispatch
}

// EngineState is the engine's dynamic state as persisted by the
// durability layer. Slices, not maps, in sorted order: gob encodes maps
// in randomized order, and a checkpoint must encode byte-identically
// for a replayed run to produce a byte-identical store image.
type EngineState struct {
	// Origins holds every per-origin log, sorted by origin name.
	Origins []OriginState
	// View holds the unexpired dispatches folded into site views that
	// are not retained in any log (snapshot imports, mesh merges), in
	// ExportSnapshot order. Log records double as view state on restore,
	// so they are not repeated here.
	View []Dispatch
}

// RestoreStats counts what a recovery replay rebuilt.
type RestoreStats struct {
	// Logged counts records re-entered into per-origin logs.
	Logged int
	// Applied counts dispatches folded back into site views.
	Applied int
	// Expired counts records skipped because their jobs had finished.
	Expired int
	// Duplicates counts records the seen set already covered (checkpoint
	// and log overlap after an interrupted compaction, or a record both
	// imported and logged).
	Duplicates int
}

// Add accumulates another replay's counts.
func (s *RestoreStats) Add(o RestoreStats) {
	s.Logged += o.Logged
	s.Applied += o.Applied
	s.Expired += o.Expired
	s.Duplicates += o.Duplicates
}

// Ticket is the write-ahead hook's receipt for one queued record.
type Ticket interface {
	// Wait returns once the ticket's record, and with it every record
	// queued before it, has been synced or refused; the error is that of
	// the commit the ticket's own record was in. It is called without
	// the engine lock, except by CheckpointState.
	Wait() error
}

// SetAppender installs the write-ahead hook: fn is called under the
// engine lock, in state-mutation order, for every dispatch record that
// enters dynamic state, and must only queue it — the order of the calls
// is the order of the log. logged reports whether the record entered a
// per-origin log (and must restore into one) or only the site view.
// The hook must not call back into the engine; a nil Ticket means the
// record needs no waiting for. Nil disables the hook.
func (e *Engine) SetAppender(fn func(d Dispatch, logged bool) Ticket) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.appender = fn
}

// appendLocked invokes the appender hook if one is set. Caller holds e.mu.
func (e *Engine) appendLocked(d Dispatch, logged bool) {
	if e.appender != nil {
		if t := e.appender(d, logged); t != nil {
			e.ticket = t
		}
	}
}

// durable waits for t, if there is one. Caller does not hold e.mu.
func durable(t Ticket) error {
	if t == nil {
		return nil
	}
	return t.Wait()
}

// unlockDurable and rUnlockDurable end a method that put records into
// the engine or hands records or log positions out of it: release the
// lock, then wait until everything the engine holds is on disk. A
// refused commit is the durability layer's to count; these callers go
// on, their records being re-obtainable from peers (ingests) or already
// conservative estimates in the view (exports).
func (e *Engine) unlockDurable() {
	t := e.ticket
	e.mu.Unlock()
	_ = durable(t)
}

func (e *Engine) rUnlockDurable() {
	t := e.ticket
	e.mu.RUnlock()
	_ = durable(t)
}

// CheckpointState captures the dynamic state — every per-origin log with
// its floor, plus the unexpired view records no log retains, all in
// deterministic order — and hands it to persist while the engine lock is
// still held. The lock is what makes the checkpoint atomic with the
// write-ahead stream: the appender hook runs under the same lock, so no
// record can be queued between the capture and the log compaction that
// persist performs, and everything queued before is waited for first
// (whoever commits the queue never takes the engine lock) — a record is
// either inside the exported state or appended after the compacted log
// restarts. persist must not call back into the engine.
func (e *Engine) CheckpointState(persist func(EngineState) error) error {
	now := e.clock.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	_ = durable(e.ticket) // a refused record is in the state persisted below
	var st EngineState
	inLog := make(map[string]struct{})
	for _, origin := range e.originsLocked() {
		l := e.logs[origin]
		recs := make([]Dispatch, len(l.recs))
		copy(recs, l.recs)
		for _, d := range recs {
			inLog[d.JobID] = struct{}{}
		}
		st.Origins = append(st.Origins, OriginState{Origin: origin, Floor: l.dropped, Records: recs})
	}
	st.View = e.viewLocked(now, func(d Dispatch) bool {
		_, dup := inLog[d.JobID]
		return !dup
	})
	return persist(st)
}

// RestoreState folds a checkpoint back into the engine: log floors and
// records first (re-establishing sequence continuity), then the
// loose view records. Meant for a freshly constructed or crashed
// (DropDynamicState) engine; on a non-empty one the seen set
// deduplicates, making a replayed restore idempotent.
func (e *Engine) RestoreState(st EngineState) RestoreStats {
	now := e.clock.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	var rs RestoreStats
	for _, o := range st.Origins {
		if o.Origin == "" {
			continue
		}
		l := e.logLocked(o.Origin)
		if l.hi() < o.Floor {
			// Adopt the floor even with no retained records: for the own
			// log this IS the sequence numbering; for relay logs it is the
			// version-vector position compaction had reached.
			l.dropped = o.Floor
		}
		for _, d := range o.Records {
			e.restoreLocked(d, true, now, &rs)
		}
	}
	for _, d := range st.View {
		e.restoreLocked(d, false, now, &rs)
	}
	return rs
}

// RestoreRecord replays one write-ahead record: the same mutation the
// appender shadowed at run time, minus the appender itself. Records
// must be replayed in append order; a sequence gap means the log was
// compacted between the checkpoint and the append, so the floor
// fast-forwards.
func (e *Engine) RestoreRecord(d Dispatch, logged bool) RestoreStats {
	now := e.clock.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	var rs RestoreStats
	e.restoreLocked(d, logged, now, &rs)
	return rs
}

// restoreLocked is the shared replay step. Caller holds e.mu.
func (e *Engine) restoreLocked(d Dispatch, logged bool, now time.Time, rs *RestoreStats) {
	// A record the log already covers stays out of it: checkpoint and
	// stale log overlap after an interrupted compaction.
	if logged && d.Origin != "" && d.Seq > 0 && e.logLocked(d.Origin).insert(d) {
		rs.Logged++
	}
	if !e.markSeenLocked(d) {
		rs.Duplicates++
		return
	}
	if d.Expired(now) {
		rs.Expired++
		return
	}
	if e.foldLocked(d) {
		rs.Applied++
	}
}

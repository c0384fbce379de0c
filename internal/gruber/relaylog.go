package gruber

import "sort"

// One dispatch log per origin decision point, and the version vector
// over them (origin → highest contiguous sequence number held). Why per
// origin: the flooding exchange ships only records the sender brokered
// itself, so every record reaches every point only over a full mesh; a
// gossip round ships anything the receiver's vector lacks, own or
// relayed, so news crosses a sparse graph in O(log N) hops. What each
// ingest path does with these logs is tabulated in DESIGN.md
// ("Replication paths").

// originLog is one origin's dispatch records as a contiguous run:
// recs[i] carries sequence number dropped+i+1, and everything at or
// below dropped has been compacted away.
type originLog struct {
	recs    []Dispatch
	dropped uint64
}

// hi returns the highest sequence number the log covers (compacted
// records count — they were held and acknowledged or expired). A nil
// log — an origin never heard of — covers nothing.
func (l *originLog) hi() uint64 {
	if l == nil {
		return 0
	}
	return l.dropped + uint64(len(l.recs))
}

// insert places a sequence-stamped record, keeping the run contiguous,
// and reports whether the log changed. A record above hi+1 means the
// sender compacted the records in between before this engine ever saw
// them: the log fast-forwards, restarting at d. The skipped records were
// acknowledged across the sender's whole view or had expired, so their
// loss is the bounded staleness dissemination already accepts. A record
// at or below hi is already covered and is left alone; what that means
// (duplicate, or an origin that restarted and renumbered) is the
// caller's call.
func (l *originLog) insert(d Dispatch) bool {
	switch hi := l.hi(); {
	case d.Seq == hi+1:
		l.recs = append(l.recs, d)
	case d.Seq > hi+1:
		l.restartAt(d)
	default:
		return false
	}
	return true
}

// restartAt discards the run and begins a new one at d.
func (l *originLog) restartAt(d Dispatch) {
	l.recs = append([]Dispatch(nil), d)
	l.dropped = d.Seq - 1
}

// after returns the records with sequence numbers greater than cursor
// (none for a nil log). The returned slice aliases the log; callers copy
// before releasing the engine lock.
func (l *originLog) after(cursor uint64) []Dispatch {
	if l == nil {
		return nil
	}
	start := uint64(0)
	if cursor > l.dropped {
		start = cursor - l.dropped
	}
	if start > uint64(len(l.recs)) {
		start = uint64(len(l.recs))
	}
	return l.recs[start:]
}

// dropThrough compacts records with sequence numbers at or below cursor.
func (l *originLog) dropThrough(cursor uint64) {
	if cursor <= l.dropped {
		return
	}
	n := cursor - l.dropped
	if n > uint64(len(l.recs)) {
		n = uint64(len(l.recs))
	}
	l.recs = append([]Dispatch(nil), l.recs[n:]...)
	l.dropped += n
}

// logLocked returns the log for origin, creating it on first use.
// Caller holds e.mu.
func (e *Engine) logLocked(origin string) *originLog {
	l := e.logs[origin]
	if l == nil {
		l = &originLog{}
		e.logs[origin] = l
	}
	return l
}

// originsLocked returns the origins the engine holds a log for, sorted,
// so that nothing derived from the logs depends on map order. Caller
// holds e.mu.
func (e *Engine) originsLocked() []string {
	origins := make([]string, 0, len(e.logs))
	for origin := range e.logs {
		origins = append(origins, origin)
	}
	sort.Strings(origins)
	return origins
}

// OriginVector returns the engine's version vector: for every origin it
// holds a log for, the highest contiguous dispatch sequence number held.
// This is the anti-entropy digest a gossip round advertises.
func (e *Engine) OriginVector() map[string]uint64 {
	e.mu.RLock()
	vv := make(map[string]uint64, len(e.logs))
	//lint:allow mapiter -- map-to-map copy; order cannot matter
	for origin, l := range e.logs {
		vv[origin] = l.hi()
	}
	e.rUnlockDurable()
	return vv
}

// DispatchesSince returns the log records a peer with version vector vv
// lacks: for every origin, records with sequence numbers above
// vv[origin] (missing origins count as zero), in sorted-origin order and
// ascending sequence within an origin. maxRecords bounds the batch
// (0 = unbounded); origins are filled in sorted order until the budget
// runs out, and the next round continues from the receiver's advanced
// vector. When the peer's cursor sits below a log's compacted floor the
// batch starts at the floor; the receiver fast-forwards over the gap
// (see originLog.insert).
func (e *Engine) DispatchesSince(vv map[string]uint64, maxRecords int) []Dispatch {
	e.mu.RLock()
	var out []Dispatch
	for _, origin := range e.originsLocked() {
		recs := e.logs[origin].after(vv[origin])
		if maxRecords > 0 && len(out)+len(recs) > maxRecords {
			recs = recs[:maxRecords-len(out)]
		}
		out = append(out, recs...)
		if maxRecords > 0 && len(out) >= maxRecords {
			break
		}
	}
	e.rUnlockDurable()
	return out
}

// GossipMergeStats describes one MergeGossip call.
type GossipMergeStats struct {
	// Stored counts records appended to a per-origin log (and therefore
	// relayable onward).
	Stored int
	// Relayed counts stored records whose origin is neither this engine
	// nor the sending peer — third-party news the mesh forwarded, the
	// measure of transitive relay actually happening.
	Relayed int
	// Applied counts records folded into the site views (unexpired,
	// previously unseen JobIDs against known sites).
	Applied int
	// Duplicates counts records the version vector already covered —
	// gossip's redundancy cost.
	Duplicates int
	// Resets counts origin-log resets forced by sequence regressions (an
	// origin crashed, lost its log, and renumbered from 1).
	Resets int
}

// MergeGossip folds gossip-delivered dispatch records into the
// per-origin logs and the site views. from names the sending peer (only
// for the Relayed count). Records must carry Origin and Seq; unstamped
// records (a pre-gossip peer) and echoes of this engine's own records
// are ignored — the own log is the numbering authority.
//
// A record the origin's log already covers is a plain duplicate when its
// JobID has been seen (two gossip paths delivered it). With an unseen
// JobID the origin restarted and renumbered from 1: the log restarts at
// the new incarnation so its fresh records flow again; late
// old-incarnation relays may bounce the log once more, which converges
// as their JobIDs enter the dedup set.
func (e *Engine) MergeGossip(from string, records []Dispatch) GossipMergeStats {
	now := e.clock.Now()
	e.mu.Lock()
	e.pruneLocked(now)
	var st GossipMergeStats
	for _, d := range records {
		if d.Origin == "" || d.Seq == 0 || d.Origin == e.name {
			continue
		}
		if l := e.logLocked(d.Origin); !l.insert(d) {
			if _, dup := e.seen[d.JobID]; dup {
				st.Duplicates++
				continue
			}
			l.restartAt(d)
			st.Resets++
		}
		st.Stored++
		// Journaled as soon as it is stored, before dedup: a record the
		// view already holds (e.g. via a snapshot import) still has to
		// restore into the log.
		e.appendLocked(d, true)
		if d.Origin != from {
			st.Relayed++
		}
		if !e.markSeenLocked(d) {
			continue
		}
		if e.foldRemoteLocked(d, now) {
			st.Applied++
		}
	}
	e.unlockDurable()
	return st
}

// CompactOrigins bounds the per-origin logs: for every origin, records
// acknowledged across the caller's whole membership view
// (seq ≤ acked[origin]) are dropped, and relayed logs also shed any
// expired prefix — an expired dispatch no longer affects anyone's view,
// so relaying it is pointless. The engine's own log is compacted by
// acknowledgment only, never by expiry: Drain's verified flush promises
// peers every own record up to the high-water mark. Log entries survive
// emptying so the version vector keeps its floor.
func (e *Engine) CompactOrigins(acked map[string]uint64) {
	now := e.clock.Now()
	e.mu.Lock()
	defer e.mu.Unlock()
	//lint:allow mapiter -- per-origin front-drop with no cross-origin reads; order cannot matter
	for origin, l := range e.logs {
		l.dropThrough(acked[origin])
		if origin == e.name {
			continue
		}
		n := 0
		for n < len(l.recs) && l.recs[n].Expired(now) {
			n++
		}
		l.dropThrough(l.dropped + uint64(n))
	}
}

package digruber

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"digruber/internal/gruber"
	"digruber/internal/wal"
)

// This file composes the gruber engine's durability surface with the
// internal/wal log. With Config.Durability set, every dispatch record
// that enters the engine's dynamic state is appended (and fsynced) to a
// write-ahead log before the mutating call returns — so a Schedule or
// Report handler only acks a dispatch that is already on stable
// storage, and fails the request when the log refused it. The engine
// queues records under its lock, in mutation order; one committer
// goroutine per decision point writes whatever is queued as one batch
// behind one fsync, off the lock (DESIGN.md, "The commit path").
// Periodically the full engine state is checkpointed and the
// log compacted. Recovery (the first Start, and every Start after a
// Crash) replays checkpoint-then-log, truncates at the first torn or
// corrupt record, and leaves the seq-gap to the Snapshot anti-entropy
// path, which Restart drives with the recovered version vector so only
// the gap is backfilled.

// DurabilityConfig turns on write-ahead durability for a decision
// point. Nil Config.Durability means no durability — no WAL, no
// recovery, byte-identical behavior to pre-durability builds.
type DurabilityConfig struct {
	// Store is where the log and checkpoints live: wal.NewDirStore for
	// real files, wal.NewMemStore for deterministic fault-injected
	// tests.
	Store wal.Store
	// CheckpointEvery is how many write-ahead appends accumulate before
	// a synchronization round takes an automatic checkpoint. 0 means
	// the default (1024); negative means manual only (CheckpointNow).
	CheckpointEvery int
}

// defaultCheckpointEvery bounds replay work: at most this many records
// sit in the log before a round compacts them into a checkpoint.
const defaultCheckpointEvery = 1024

// walEntry is one write-ahead record: the dispatch exactly as it
// entered dynamic state, and whether it entered a per-origin log
// (Logged) or only the site view. Gob-encoded self-contained (the bytes
// of a fresh encoder per record), so any prefix of the log decodes
// without the truncated tail.
type walEntry struct {
	D      gruber.Dispatch
	Logged bool
}

// RecoveryStats describes what the last recovery pass did — the
// white-box record behind the wal/recovered, wal/truncated and
// wal/backfilled gauges and the ext-recovery experiment's assertions.
type RecoveryStats struct {
	// CheckpointRestored reports that a checkpoint was found, decoded
	// and folded back into the engine.
	CheckpointRestored bool
	// CheckpointCorrupt reports that a checkpoint existed but failed
	// framing, checksum or decoding; recovery then proceeded from the
	// log alone (plus peer backfill).
	CheckpointCorrupt bool
	// Recovered counts write-ahead records replayed into the engine.
	Recovered int
	// Truncated reports that the log ended in a torn or corrupt record;
	// TruncateReason says which kind (wal.ReasonTornHeader etc.).
	Truncated      bool
	TruncateReason string
	// Backfilled counts dispatch records the post-recovery peer resync
	// imported — the seq-gap the truncation (or the crash itself) left.
	Backfilled int
	// Restore aggregates the engine-side replay counts.
	Restore gruber.RestoreStats
}

// durability is the per-decision-point durability state.
type durability struct {
	log             *wal.Log
	commits         committer
	checkpointEvery int

	mu sync.Mutex
	// needRecover is true from construction until the first successful
	// recovery, and again after a Crash — Start must replay the store
	// before the listener opens.
	needRecover bool
	// Cumulative counters behind the wal/* gauges.
	recovered   int64
	truncations int64
	backfilled  int64
	// lastCheckpoint is when the latest checkpoint was taken (zero
	// before the first); appendsAtCkpt is the log's append count at
	// that moment, the base for the CheckpointEvery cadence.
	lastCheckpoint time.Time
	appendsAtCkpt  int64
	// last is the most recent recovery pass, for LastRecovery.
	last RecoveryStats
}

func newDurability(cfg *DurabilityConfig) *durability {
	every := cfg.CheckpointEvery
	if every == 0 {
		every = defaultCheckpointEvery
	}
	dur := &durability{
		log:             wal.Open(cfg.Store),
		checkpointEvery: every,
		needRecover:     true,
	}
	dur.commits.log = dur.log
	return dur
}

// committer is the one goroutine of a durable decision point that
// touches the disk on the append path. The engine's hook (enqueue) adds
// a record to the open batch under the engine lock; the first caller to
// wait for the batch, its lock released, wakes run, which takes the
// batch, encodes and frames it and commits it with one write and one
// fsync, while the records that arrive meanwhile open the next batch.
// Log order is queue order is mutation order. It blocks on its queue and
// on the disk only — no timer, no commit delay: with one caller a batch
// is one record or one merge, and batches grow exactly when records
// arrive faster than the disk syncs.
type committer struct {
	log *wal.Log

	mu sync.Mutex
	// open is the batch records are joining, nil when nothing is queued.
	open *commitBatch
	// spare is a committed batch's entry storage for the next to reuse.
	spare []walEntry
	// wake (capacity 1) tells run the open batch has a waiter; nil while
	// stopped.
	wake chan struct{}
	// exited is closed when run has returned.
	exited chan struct{}

	// Owned by run: the primed encoder and the batch's payload bytes.
	enc      *entryEncoder
	bytes    []byte
	payloads [][]byte
}

// commitBatch is the records committed together and the Ticket of each
// of them: done is released once the batch's fsync has returned or
// failed, with err set first.
type commitBatch struct {
	c       *committer
	entries []walEntry
	// awaited is set by the first Wait, which is what tells the committer
	// about the batch: a merge's records are all queued by then, so they
	// share a commit instead of racing the committer for it one by one.
	awaited atomic.Bool
	done    sync.WaitGroup
	err     error
}

// Wait costs one atomic compare once the batch has been committed.
func (b *commitBatch) Wait() error {
	if b.awaited.CompareAndSwap(false, true) {
		b.c.wakeUp()
	}
	b.done.Wait()
	return b.err
}

// errNotCommitting refuses a record queued while no committer runs (a
// stopped decision point); it is lost unless a checkpoint captures it.
// refusedTicket is such a record's ticket.
var errNotCommitting = errors.New("digruber: write-ahead log is stopped")

type refusedTicket struct{}

func (refusedTicket) Wait() error { return errNotCommitting }

// enqueue is the engine's appender hook: it runs under the engine lock,
// which is exactly the point — the log order is the state-mutation
// order — and therefore only queues. The mutating call waits for the
// ticket after it has released the lock.
func (c *committer) enqueue(d gruber.Dispatch, logged bool) gruber.Ticket {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wake == nil {
		return refusedTicket{}
	}
	if c.open == nil {
		c.open = &commitBatch{c: c, entries: c.spare[:0]}
		c.spare = nil
		c.open.done.Add(1)
	}
	c.open.entries = append(c.open.entries, walEntry{D: d, Logged: logged})
	return c.open
}

// wakeUp tells run there is a batch with a waiter.
func (c *committer) wakeUp() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wake != nil {
		select {
		case c.wake <- struct{}{}:
		default: // a wake-up is already pending; run takes c.open when it comes
		}
	}
}

// start launches the committer goroutine; a no-op when it is running.
func (c *committer) start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.wake != nil {
		return
	}
	c.wake = make(chan struct{}, 1)
	c.exited = make(chan struct{})
	go c.run(c.wake, c.exited)
}

// stop ends the committer: the batch still open is refused (its records
// were never acked, so they may be lost), the batch being written is
// waited for, and the goroutine has exited when stop returns.
func (c *committer) stop() {
	c.mu.Lock()
	wake, exited, b := c.wake, c.exited, c.open
	c.wake, c.open = nil, nil
	c.mu.Unlock()
	if wake == nil {
		return
	}
	close(wake)
	if b != nil {
		b.err = errNotCommitting
		b.done.Done()
	}
	<-exited
}

func (c *committer) run(wake <-chan struct{}, exited chan<- struct{}) {
	defer close(exited)
	for range wake {
		c.mu.Lock()
		b := c.open
		c.open = nil
		c.mu.Unlock()
		if b == nil {
			continue // stop took it
		}
		b.err = c.commit(b.entries)
		clear(b.entries)
		c.mu.Lock()
		c.spare, b.entries = b.entries, nil
		c.mu.Unlock()
		b.done.Done()
	}
}

// commit makes one batch durable: every entry encoded as a
// self-contained record, all of them framed into one write behind one
// fsync.
func (c *committer) commit(entries []walEntry) error {
	if c.enc == nil {
		c.enc = newEntryEncoder()
	}
	c.bytes, c.payloads = c.bytes[:0], c.payloads[:0]
	for i := range entries {
		start := len(c.bytes)
		var err error
		if c.bytes, err = c.enc.appendEntry(c.bytes, &entries[i]); err != nil {
			c.enc = nil // a failed Encode may have half-sent a type
			return err
		}
		// If a later append moves c.bytes, this payload stays where it was
		// written: append copies, it does not touch the array it outgrew.
		c.payloads = append(c.payloads, c.bytes[start:])
	}
	return c.log.AppendBatch(c.payloads)
}

// entryEncoder writes walEntry records with one long-lived gob.Encoder.
// A fresh encoder opens its stream with the type definitions of
// everything a walEntry reaches and then writes the value message; a
// primed one writes the value message alone. The definitions are a
// function of the type, so they are taken once and put in front of
// every value: the bytes of a fresh encoder per record (which is what
// decodeWALEntry reads and what the log has always held) for a tenth of
// the work.
type entryEncoder struct {
	enc    *gob.Encoder
	buf    bytes.Buffer
	prefix []byte
}

func newEntryEncoder() *entryEncoder {
	e := &entryEncoder{}
	e.enc = gob.NewEncoder(&e.buf)
	// The first Encode writes definitions + value, the second the same
	// value alone; the difference is the definitions. gob cannot fail on
	// this fixed shape.
	_ = e.enc.Encode(&walEntry{})
	first := bytes.Clone(e.buf.Bytes())
	e.buf.Reset()
	_ = e.enc.Encode(&walEntry{})
	e.prefix = first[:len(first)-e.buf.Len()]
	return e
}

// appendEntry appends en's self-contained record to dst.
func (e *entryEncoder) appendEntry(dst []byte, en *walEntry) ([]byte, error) {
	e.buf.Reset()
	if err := e.enc.Encode(en); err != nil {
		return dst, err
	}
	return append(append(dst, e.prefix...), e.buf.Bytes()...), nil
}

// checkpointNow takes one checkpoint: the engine state is captured and
// persisted under the engine lock (see Engine.CheckpointState), which
// compacts the log without racing concurrent appends.
func (dur *durability) checkpointNow(e *gruber.Engine, now time.Time) error {
	err := e.CheckpointState(func(st gruber.EngineState) error {
		payload, err := encodeEngineState(st)
		if err != nil {
			return err
		}
		return dur.log.Checkpoint(payload)
	})
	if err != nil {
		return err
	}
	stats := dur.log.Stats()
	dur.mu.Lock()
	dur.lastCheckpoint = now
	dur.appendsAtCkpt = stats.Appends
	dur.mu.Unlock()
	return nil
}

// decodeWALEntry is the per-record decoder: every record is
// self-contained (type descriptors included, see entryEncoder), so
// truncating the log at any record boundary leaves a decodable prefix.
// (The codec functions stay concrete: the wire-schema lint finds
// persisted structs at the gob call that names them.)
func decodeWALEntry(payload []byte) (walEntry, error) {
	var e walEntry
	err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&e)
	return e, err
}

// encodeEngineState / decodeEngineState are the checkpoint codec.
// gruber.EngineState is sorted slices all the way down, so the same
// state encodes byte-identically — a replayed run produces a
// byte-identical store image.
func encodeEngineState(st gruber.EngineState) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeEngineState(payload []byte) (gruber.EngineState, error) {
	var st gruber.EngineState
	err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&st)
	return st, err
}

// recoverLocked replays the durability store into the engine. Called
// from Start (which holds dp.mu) before the listener opens, so the
// decision point never serves un-recovered state. No-op unless a
// recovery is pending (first Start, or Start after Crash).
//
// The sequence is: read checkpoint and log (wal.Log.Recover truncates
// the readable log at the first torn or corrupt record), restore the
// checkpoint, replay the surviving records in append order, then take
// a fresh checkpoint — which both compacts the replayed records and
// discards any corrupt tail still sitting in the on-store log file.
func (dp *DecisionPoint) recoverLocked() error {
	dur := dp.dur
	dur.mu.Lock()
	need := dur.needRecover
	dur.mu.Unlock()
	if !need {
		return nil
	}
	rec, err := dur.log.Recover()
	if err != nil {
		return fmt.Errorf("digruber: %s: wal recovery: %w", dp.cfg.Name, err)
	}
	var rs RecoveryStats
	rs.Truncated = rec.Truncated
	rs.TruncateReason = rec.Reason
	rs.CheckpointCorrupt = rec.CheckpointCorrupt
	if len(rec.Checkpoint) > 0 && !rec.CheckpointCorrupt {
		st, derr := decodeEngineState(rec.Checkpoint)
		if derr != nil {
			// Framing and checksum passed but the content did not decode:
			// treat exactly like a corrupt checkpoint — start empty and
			// lean on the log plus peer backfill.
			rs.CheckpointCorrupt = true
		} else {
			rs.Restore.Add(dp.engine.RestoreState(st))
			rs.CheckpointRestored = true
		}
	}
	for _, payload := range rec.Records {
		en, derr := decodeWALEntry(payload)
		if derr != nil {
			// A checksummed record that does not decode is corruption the
			// CRC missed (or a software bug); same contract as a torn
			// record — stop replaying here, never panic, report it.
			rs.Truncated = true
			if rs.TruncateReason == "" {
				rs.TruncateReason = "undecodable record"
			}
			break
		}
		rs.Restore.Add(dp.engine.RestoreRecord(en.D, en.Logged))
		rs.Recovered++
	}
	if err := dur.checkpointNow(dp.engine, dp.cfg.Clock.Now()); err != nil {
		return fmt.Errorf("digruber: %s: post-recovery checkpoint: %w", dp.cfg.Name, err)
	}
	dur.mu.Lock()
	dur.needRecover = false
	dur.recovered += int64(rs.Recovered)
	if rs.Truncated {
		dur.truncations++
	}
	dur.last = rs
	dur.mu.Unlock()
	return nil
}

// noteBackfilled counts snapshot records imported by the post-recovery
// resync into the last recovery's record and the cumulative gauge.
func (dur *durability) noteBackfilled(n int) {
	if n <= 0 {
		return
	}
	dur.mu.Lock()
	dur.backfilled += int64(n)
	dur.last.Backfilled += n
	dur.mu.Unlock()
}

// crash drops the open log segment handle (the store image survives —
// that is the point) and arms recovery for the next Start. The
// committer has been stopped by then.
func (dur *durability) crash() {
	dur.log.Close()
	dur.mu.Lock()
	dur.needRecover = true
	dur.mu.Unlock()
}

// CheckpointNow forces a durability checkpoint: the engine state is
// written to the store and the write-ahead log is compacted. No-op
// (nil) when durability is off.
func (dp *DecisionPoint) CheckpointNow() error {
	if dp.dur == nil {
		return nil
	}
	return dp.dur.checkpointNow(dp.engine, dp.cfg.Clock.Now())
}

// maybeCheckpoint takes an automatic checkpoint when CheckpointEvery
// appends have accumulated since the last one. Called at the end of
// every synchronization round — a deterministic hook under the Manual
// clock, unlike a background timer. Checkpoint errors are deliberately
// swallowed here: the WAL still holds every record, so a failed
// checkpoint costs replay time, not durability.
func (dp *DecisionPoint) maybeCheckpoint() {
	dur := dp.dur
	if dur == nil || dur.checkpointEvery < 0 {
		return
	}
	appends := dur.log.Stats().Appends
	dur.mu.Lock()
	due := appends-dur.appendsAtCkpt >= int64(dur.checkpointEvery)
	dur.mu.Unlock()
	if due {
		_ = dur.checkpointNow(dp.engine, dp.cfg.Clock.Now())
	}
}

// LastRecovery returns what the most recent recovery pass did (the
// zero value before any recovery, or when durability is off).
func (dp *DecisionPoint) LastRecovery() RecoveryStats {
	if dp.dur == nil {
		return RecoveryStats{}
	}
	dp.dur.mu.Lock()
	defer dp.dur.mu.Unlock()
	return dp.dur.last
}

// WALStats exposes the underlying log's counters (zero when durability
// is off) — for tests and the digruber-top WAL columns.
func (dp *DecisionPoint) WALStats() wal.Stats {
	if dp.dur == nil {
		return wal.Stats{}
	}
	return dp.dur.log.Stats()
}

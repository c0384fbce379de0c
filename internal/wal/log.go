package wal

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sync"
)

// Store file names. The checkpoint is one framed record holding the
// caller's full snapshot; the log holds everything appended since the
// last checkpoint. A checkpoint swap writes the snapshot to a temp
// file, fsyncs it, atomically renames it over the checkpoint, and only
// then resets the log — so a crash at any point leaves either the old
// (checkpoint, log) pair or the new checkpoint with a stale log, and a
// stale log only replays records the snapshot already contains, which
// the caller's restore path deduplicates.
const (
	logName        = "wal.log"
	checkpointName = "checkpoint"
	checkpointTmp  = "checkpoint.tmp"
)

// Stats counts a log's activity since Open.
type Stats struct {
	// Appends counts records durably appended; AppendErrors counts
	// records whose batch failed (write or fsync error) — those records
	// may not survive a crash.
	Appends      int64
	AppendErrors int64
	// Bytes is the framed bytes appended to the log (checkpoints and
	// zero fill not included).
	Bytes int64
	// Checkpoints counts completed checkpoint swaps.
	Checkpoints int64
}

// Log is one write-ahead log over a Store: Recover reads it back,
// AppendBatch adds records behind one fsync, Checkpoint compacts it
// under a new snapshot. All methods are safe for concurrent use.
type Log struct {
	store Store

	mu  sync.Mutex
	seg Segment // open log segment; nil until the first append needs it
	// end is where the valid log ends and the next batch goes; known is
	// false until a Recover, a Checkpoint or the first append's own scan
	// has established it. dirty is the highest offset anything was ever
	// written to in this segment: past end only after a failed batch or
	// a recovered torn tail, whose bytes the next append zeroes first.
	end, dirty int64
	known      bool
	frames     []byte // the batch being framed, reused
	stats      Stats
}

// ErrEmptyRecord refuses a record with no bytes: its header would be the
// end mark (see DecodeAll).
var ErrEmptyRecord = errors.New("wal: empty record")

// Open returns a log over the store. It reads nothing — call Recover
// before the first Append to adopt (and compact) any prior state.
func Open(store Store) *Log {
	return &Log{store: store}
}

// Recovered is what Recover found on the store.
type Recovered struct {
	// Checkpoint is the last durable snapshot payload (nil when none
	// was ever written, or when the checkpoint itself failed its CRC —
	// see CheckpointCorrupt).
	Checkpoint []byte
	// CheckpointCorrupt reports a checkpoint file that existed but did
	// not decode to exactly one valid record; recovery proceeds from
	// the log alone and the caller backfills the difference from peers.
	CheckpointCorrupt bool
	// Records are the log's valid-prefix payloads, in append order.
	Records [][]byte
	// Truncated reports a torn or corrupt log tail; ValidBytes is where
	// the valid prefix ends and Reason is the decoder's verdict.
	Truncated  bool
	ValidBytes int64
	Reason     string
}

// Recover reads the checkpoint and log back. It returns an error only
// for store I/O failures; torn or corrupt content is never an error —
// it is truncated at the first bad record and reported. Recover closes
// any open segment, so it can be called again after a modeled crash;
// callers normally follow a recovery by replaying the records and
// taking a fresh Checkpoint, which also discards the corrupt tail.
func (l *Log) Recover() (Recovered, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closeSegLocked()
	var rec Recovered
	ck, err := l.readAll(checkpointName)
	if err != nil {
		return Recovered{}, err
	}
	if ck != nil {
		d := DecodeAll(ck)
		if d.Truncated || len(d.Records) != 1 {
			rec.CheckpointCorrupt = true
		} else {
			rec.Checkpoint = d.Records[0]
		}
	}
	d, err := l.scanLocked()
	if err != nil {
		return Recovered{}, err
	}
	rec.Records = d.Records
	rec.Truncated = d.Truncated
	rec.ValidBytes = d.ValidBytes
	rec.Reason = d.Reason
	return rec, nil
}

// scanLocked decodes the log file and leaves the write offset at the
// end of its valid prefix. After a truncated decode everything up to
// the end of the file counts as dirty.
func (l *Log) scanLocked() (Decoded, error) {
	data, err := l.readAll(logName)
	if err != nil {
		return Decoded{}, err
	}
	d := DecodeAll(data)
	l.end, l.dirty, l.known = d.ValidBytes, d.ValidBytes, true
	if d.Truncated {
		l.dirty = int64(len(data))
	}
	return d, nil
}

// readAll returns the named file's content, nil when it does not exist.
func (l *Log) readAll(name string) ([]byte, error) {
	r, err := l.store.Open(name)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	data, err := io.ReadAll(r)
	cerr := r.Close()
	if err != nil {
		return nil, fmt.Errorf("wal: read %s: %w", name, err)
	}
	if cerr != nil {
		return nil, fmt.Errorf("wal: close %s: %w", name, cerr)
	}
	return data, nil
}

// Append is AppendBatch of one record.
func (l *Log) Append(payload []byte) error {
	return l.AppendBatch([][]byte{payload})
}

// AppendBatch frames the payloads and appends them durably, in order,
// with one write and one fsync: when it returns nil every record of the
// batch is on stable storage. On failure none of them counts as
// appended and any may be lost in a crash: the error is returned, the
// records are counted, and the segment handle is dropped; the next
// batch reopens it and starts where this one did, over whatever this
// one left behind.
func (l *Log) AppendBatch(payloads [][]byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := int64(len(payloads))
	l.frames = l.frames[:0]
	for _, p := range payloads {
		if len(p) == 0 {
			l.stats.AppendErrors += n
			return ErrEmptyRecord
		}
		l.frames = appendRecord(l.frames, p)
	}
	if err := l.writeLocked(); err != nil {
		l.stats.AppendErrors += n
		l.closeSegLocked()
		return fmt.Errorf("wal: append: %w", err)
	}
	l.stats.Appends += n
	l.stats.Bytes += int64(len(l.frames))
	return nil
}

// writeLocked puts l.frames at the end of the log and syncs.
func (l *Log) writeLocked() error {
	if l.seg == nil {
		if !l.known {
			// Appending without a Recover first: find the end ourselves.
			if _, err := l.scanLocked(); err != nil {
				return err
			}
		}
		seg, err := l.store.Segment(logName)
		if err != nil {
			return err
		}
		l.seg = seg
	}
	if l.dirty > l.end {
		// Zero what a failed batch or a torn tail left, and make that
		// durable first: a stale frame the same size as a new one must
		// not be able to surface behind it.
		if _, err := l.seg.WriteAt(make([]byte, l.dirty-l.end), l.end); err != nil {
			return err
		}
		if err := l.seg.Sync(); err != nil {
			return err
		}
	}
	l.dirty = l.end + int64(len(l.frames))
	if _, err := l.seg.WriteAt(l.frames, l.end); err != nil {
		return err
	}
	if err := l.seg.Sync(); err != nil {
		return err
	}
	l.end = l.dirty
	return nil
}

// closeSegLocked drops the segment handle, if one is open.
func (l *Log) closeSegLocked() {
	if l.seg != nil {
		l.seg.Close()
		l.seg = nil
	}
}

// Checkpoint writes snapshot as the new durable checkpoint and resets
// the log — the compaction step. The swap order (write temp, fsync,
// rename, then truncate the log) keeps every crash point recoverable.
func (l *Log) Checkpoint(snapshot []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(snapshot) == 0 {
		return fmt.Errorf("wal: checkpoint: %w", ErrEmptyRecord)
	}
	tmp, err := l.store.Create(checkpointTmp)
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if _, err := tmp.Write(appendRecord(nil, snapshot)); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: checkpoint write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: checkpoint sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("wal: checkpoint close: %w", err)
	}
	if err := l.store.Rename(checkpointTmp, checkpointName); err != nil {
		return fmt.Errorf("wal: checkpoint swap: %w", err)
	}
	// The snapshot is durable; everything in the log is now redundant.
	// The next append opens the emptied segment.
	l.closeSegLocked()
	l.known = false // until the truncation has happened
	empty, err := l.store.Create(logName)
	if err == nil {
		err = empty.Close()
	}
	if err != nil {
		return fmt.Errorf("wal: checkpoint truncate: %w", err)
	}
	l.end, l.dirty, l.known = 0, 0, true
	l.stats.Checkpoints++
	return nil
}

// Close closes the open segment, if any, and forgets where the log
// ends: whoever uses the store next may change it (a modeled crash
// damages it), so a later Recover or append reads it again.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.known = false
	if l.seg == nil {
		return nil
	}
	err := l.seg.Close()
	l.seg = nil
	return err
}

// Stats returns a copy of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

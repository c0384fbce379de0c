package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"digruber/internal/netsim"
)

// payloads the tests append: varied sizes, none empty (an empty record
// is refused: its header would be the end mark).
func testPayloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(strings.Repeat(fmt.Sprintf("rec-%03d|", i), i%5+1))
	}
	return out
}

func appendAll(t *testing.T, l *Log, payloads [][]byte) {
	t.Helper()
	for i, p := range payloads {
		if err := l.Append(p); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func wantRecords(t *testing.T, got [][]byte, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestAppendRecover is the basic round trip: everything appended comes
// back, in order, after a modeled crash (the Log object is reopened).
func TestAppendRecover(t *testing.T) {
	store := NewMemStore()
	l := Open(store)
	if _, err := l.Recover(); err != nil {
		t.Fatal(err)
	}
	payloads := testPayloads(20)
	appendAll(t, l, payloads)
	if st := l.Stats(); st.Appends != 20 || st.AppendErrors != 0 {
		t.Fatalf("stats = %+v", st)
	}

	rec, err := Open(store).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Truncated || rec.CheckpointCorrupt || rec.Checkpoint != nil {
		t.Fatalf("clean log recovered as %+v", rec)
	}
	wantRecords(t, rec.Records, payloads)
}

// TestAppendSyncsEveryRecord: every record is behind a sync that
// returned before its Append did — the property the zero-acked-loss
// contract stands on — and a batch shares one.
func TestAppendSyncsEveryRecord(t *testing.T) {
	store := NewMemStore()
	l := Open(store)
	for i, p := range testPayloads(5) {
		before := store.Syncs()
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
		if store.Syncs() != before+1 {
			t.Fatalf("append %d returned behind %d syncs, want 1", i, store.Syncs()-before)
		}
	}
	before := store.Syncs()
	if err := l.AppendBatch(testPayloads(7)); err != nil {
		t.Fatal(err)
	}
	if store.Syncs() != before+1 {
		t.Fatalf("a batch of 7 returned behind %d syncs, want 1", store.Syncs()-before)
	}
	rec, err := Open(store).Recover()
	if err != nil {
		t.Fatal(err)
	}
	wantRecords(t, rec.Records, append(testPayloads(5), testPayloads(7)...))
}

// TestEmptyRecordRefused: nothing writes a record whose header would be
// the end mark, alone or inside a batch, and a refused batch leaves the
// log as it was.
func TestEmptyRecordRefused(t *testing.T) {
	store := NewMemStore()
	l := Open(store)
	appendAll(t, l, testPayloads(2))
	if err := l.Append(nil); !errors.Is(err, ErrEmptyRecord) {
		t.Fatalf("empty append: %v", err)
	}
	if err := l.AppendBatch([][]byte{[]byte("a"), {}, []byte("b")}); !errors.Is(err, ErrEmptyRecord) {
		t.Fatalf("batch with an empty record: %v", err)
	}
	if err := l.Checkpoint(nil); !errors.Is(err, ErrEmptyRecord) {
		t.Fatalf("empty checkpoint: %v", err)
	}
	if st := l.Stats(); st.Appends != 2 || st.AppendErrors != 4 {
		t.Fatalf("stats = %+v", st)
	}
	rec, err := Open(store).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Truncated {
		t.Fatalf("recovered %+v", rec)
	}
	wantRecords(t, rec.Records, testPayloads(2))
}

// TestCheckpointCompacts: a checkpoint swap makes the snapshot durable,
// truncates the log, and recovery returns the snapshot plus only the
// records appended after it.
func TestCheckpointCompacts(t *testing.T) {
	store := NewMemStore()
	l := Open(store)
	appendAll(t, l, testPayloads(10))
	preCheckpoint := store.Size(logName)
	if err := l.Checkpoint([]byte("snapshot-state")); err != nil {
		t.Fatal(err)
	}
	if got := store.Size(logName); got != 0 {
		t.Fatalf("log holds %d bytes after checkpoint (was %d); compaction did not happen", got, preCheckpoint)
	}
	tail := [][]byte{[]byte("after-1"), []byte("after-2")}
	appendAll(t, l, tail)

	rec, err := Open(store).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Checkpoint, []byte("snapshot-state")) {
		t.Fatalf("checkpoint = %q", rec.Checkpoint)
	}
	wantRecords(t, rec.Records, tail)
	if st := l.Stats(); st.Checkpoints != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestTornWriteTruncates: a seeded torn write — the file cut at an
// arbitrary byte offset inside the last record — loses exactly that
// record; the prefix survives and the truncation is reported.
func TestTornWriteTruncates(t *testing.T) {
	rng := netsim.Stream(7, "wal.test.torn")
	for trial := 0; trial < 20; trial++ {
		store := NewMemStore()
		l := Open(store)
		payloads := testPayloads(8)
		appendAll(t, l, payloads)
		full := store.Size(logName)
		lastLen := int64(headerSize + len(payloads[7]))
		// Cut somewhere strictly inside the final record's frame.
		cut := full - 1 - rng.Int63n(lastLen-1)
		if !store.Truncate(logName, cut) {
			t.Fatalf("trial %d: truncate at %d of %d failed", trial, cut, full)
		}

		l2 := Open(store)
		rec, err := l2.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Truncated {
			t.Fatalf("trial %d: torn tail at %d not reported", trial, cut)
		}
		wantRecords(t, rec.Records, payloads[:7])
		if l2.end != full-lastLen {
			t.Fatalf("trial %d: next append at %d, want the valid prefix's end %d", trial, l2.end, full-lastLen)
		}
	}
}

// TestBitFlipTruncates: a seeded single-bit flip anywhere in the log is
// detected (CRC, length desync, or oversized length) and decoding stops
// at or before the damaged record — never a panic, never a corrupt
// record surfaced.
func TestBitFlipTruncates(t *testing.T) {
	rng := netsim.Stream(11, "wal.test.bitflip")
	for trial := 0; trial < 50; trial++ {
		store := NewMemStore()
		l := Open(store)
		payloads := testPayloads(8)
		appendAll(t, l, payloads)
		full := store.Size(logName)
		off := rng.Int63n(full)
		if !store.FlipBit(logName, off, uint(rng.Intn(8))) {
			t.Fatalf("trial %d: flip at %d failed", trial, off)
		}

		rec, err := Open(store).Recover()
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Truncated {
			t.Fatalf("trial %d: flipped bit at byte %d went undetected", trial, off)
		}
		// Every surfaced record must be one of the originals, in order:
		// the flip can only shorten the valid prefix, never corrupt it.
		if len(rec.Records) >= len(payloads) {
			t.Fatalf("trial %d: %d records survived a corrupting flip", trial, len(rec.Records))
		}
		wantRecords(t, rec.Records, payloads[:len(rec.Records)])
	}
}

// TestFailedFsync: an armed fsync failure surfaces as an append error
// and is counted; the log keeps accepting appends afterwards.
func TestFailedFsync(t *testing.T) {
	store := NewMemStore()
	l := Open(store)
	appendAll(t, l, testPayloads(3))
	store.FailNextSyncs(1)
	if err := l.Append([]byte("doomed")); err == nil {
		t.Fatal("append with failing fsync reported success")
	}
	if err := l.Append([]byte("alive-again")); err != nil {
		t.Fatalf("append after fsync failure: %v", err)
	}
	st := l.Stats()
	if st.AppendErrors != 1 || st.Appends != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

// shortWriteStore is a Store whose next segment write puts half the
// buffer down and fails — what a full disk or an I/O error mid-write
// does. (MemStore models a tear as a Truncate after the fact, which
// removes the torn bytes the next append has to deal with.)
type shortWriteStore struct {
	Store
	armed bool
}

type shortWriteSegment struct {
	Segment
	s *shortWriteStore
}

func (s *shortWriteStore) Segment(name string) (Segment, error) {
	seg, err := s.Store.Segment(name)
	return shortWriteSegment{seg, s}, err
}

func (f shortWriteSegment) WriteAt(p []byte, off int64) (int, error) {
	if f.s.armed {
		f.s.armed = false
		n, _ := f.Segment.WriteAt(p[:len(p)/2], off)
		return n, errors.New("injected short write")
	}
	return f.Segment.WriteAt(p, off)
}

// TestShortWriteThenAppends: records acked after a short write are
// recoverable. The failed batch's bytes sit where the next batch goes,
// not in front of it, and none of them surfaces.
func TestShortWriteThenAppends(t *testing.T) {
	for _, tc := range []struct {
		name  string
		store func(t *testing.T) Store
	}{
		{"mem", func(*testing.T) Store { return NewMemStore() }},
		{"dir", func(t *testing.T) Store {
			s, err := NewDirStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := &shortWriteStore{Store: tc.store(t)}
			l := Open(store)
			before := testPayloads(3)
			appendAll(t, l, before)
			store.armed = true
			// Same-sized records, so a stale frame of the failed batch would
			// line up exactly behind a shorter new batch.
			failed := [][]byte{[]byte("doomed-0"), []byte("doomed-1"), []byte("doomed-2"), []byte("doomed-3")}
			if err := l.AppendBatch(failed); err == nil {
				t.Fatal("short write reported success")
			}
			if st := l.Stats(); st.AppendErrors != 4 || st.Appends != 3 {
				t.Fatalf("stats after the short write = %+v", st)
			}
			var after [][]byte
			for i := 0; i < 10; i++ {
				after = append(after, []byte(fmt.Sprintf("later--%d", i)))
			}
			appendAll(t, l, after[:1])
			// A crash here: the one later record is on disk, and whatever the
			// failed batch left behind it must not decode.
			rec, err := Open(store).Recover()
			if err != nil {
				t.Fatal(err)
			}
			if rec.Truncated {
				t.Fatalf("recovered as truncated: %s", rec.Reason)
			}
			wantRecords(t, rec.Records, append(append([][]byte{}, before...), after[:1]...))

			appendAll(t, l, after[1:])
			rec, err = Open(store).Recover()
			if err != nil {
				t.Fatal(err)
			}
			if rec.Truncated {
				t.Fatalf("recovered as truncated: %s", rec.Reason)
			}
			wantRecords(t, rec.Records, append(append([][]byte{}, before...), after...))
		})
	}
}

// TestAppendAfterTornTail: a log adopted with a torn tail and appended
// to without a checkpoint in between keeps the new records readable.
func TestAppendAfterTornTail(t *testing.T) {
	store := NewMemStore()
	l := Open(store)
	payloads := testPayloads(4)
	appendAll(t, l, payloads)
	if !store.Truncate(logName, store.Size(logName)-2) {
		t.Fatal("truncate failed")
	}
	l = Open(store)
	rec, err := l.Recover()
	if err != nil || !rec.Truncated {
		t.Fatalf("recover: %+v, %v", rec, err)
	}
	appendAll(t, l, [][]byte{[]byte("x")}) // shorter than the torn record
	got, err := Open(store).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if got.Truncated {
		t.Fatalf("recovered as truncated: %s", got.Reason)
	}
	wantRecords(t, got.Records, append(append([][]byte{}, payloads[:3]...), []byte("x")))
}

// TestEndMark: zeros after the last record are preallocated space, not
// damage; anything else after them is.
func TestEndMark(t *testing.T) {
	payloads := testPayloads(3)
	var img []byte
	for _, p := range payloads {
		img = appendRecord(img, p)
	}
	for _, zeros := range []int{1, 7, 8, 9, 4096} {
		d := DecodeAll(append(append([]byte(nil), img...), make([]byte, zeros)...))
		if d.Truncated || d.ValidBytes != int64(len(img)) {
			t.Fatalf("%d zero bytes after the log: %+v", zeros, d)
		}
		wantRecords(t, d.Records, payloads)
	}
	// A batch torn so that its second page is on disk and its first is
	// not: zeros where the next header belongs, frames after them.
	torn := append(append(append([]byte(nil), img...), make([]byte, 64)...), appendRecord(nil, []byte("late"))...)
	d := DecodeAll(torn)
	if !d.Truncated || d.Reason != ReasonAfterEnd || d.ValidBytes != int64(len(img)) {
		t.Fatalf("data after the end mark: %+v", d)
	}
	wantRecords(t, d.Records, payloads)
}

// TestCorruptCheckpointReported: a bit-flipped checkpoint is refused
// (never served) and reported, while the log still replays.
func TestCorruptCheckpointReported(t *testing.T) {
	store := NewMemStore()
	l := Open(store)
	if err := l.Checkpoint([]byte("good-snapshot")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, [][]byte{[]byte("tail")})
	if !store.FlipBit(checkpointName, headerSize+2, 3) {
		t.Fatal("flip failed")
	}
	rec, err := Open(store).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.CheckpointCorrupt || rec.Checkpoint != nil {
		t.Fatalf("corrupt checkpoint recovered as %+v", rec)
	}
	wantRecords(t, rec.Records, [][]byte{[]byte("tail")})
}

// TestCrashBetweenSwapAndTruncate: the checkpoint swap's worst crash
// point — new checkpoint durable, old log not yet truncated — replays
// records the snapshot already covers, which the caller's restore path
// deduplicates. Recovery itself must surface both cleanly.
func TestCrashBetweenSwapAndTruncate(t *testing.T) {
	store := NewMemStore()
	// Build the post-crash image by hand: a valid checkpoint plus a log
	// whose records predate it.
	ck, err := store.Create(checkpointName)
	if err != nil {
		t.Fatal(err)
	}
	ck.Write(appendRecord(nil, []byte("snapshot")))
	ck.Close()
	lg, err := store.Create(logName)
	if err != nil {
		t.Fatal(err)
	}
	lg.Write(appendRecord(nil, []byte("pre-swap-record")))
	lg.Close()

	rec, err := Open(store).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Checkpoint, []byte("snapshot")) || rec.Truncated {
		t.Fatalf("recovered %+v", rec)
	}
	wantRecords(t, rec.Records, [][]byte{[]byte("pre-swap-record")})
}

// TestDirStore: the same round trip over real os files.
func TestDirStore(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l := Open(store)
	payloads := testPayloads(6)
	appendAll(t, l, payloads)
	if err := l.Checkpoint([]byte("dir-snap")); err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, [][]byte{[]byte("dir-tail")})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := Open(store).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Checkpoint, []byte("dir-snap")) {
		t.Fatalf("checkpoint = %q", rec.Checkpoint)
	}
	wantRecords(t, rec.Records, [][]byte{[]byte("dir-tail")})

	if _, err := store.Create("../escape"); err == nil {
		t.Fatal("path traversal accepted")
	}
}

// TestDirStoreSegment: the on-disk segment is written inside space
// zero-filled ahead of it. A crash (the handle dropped, nothing
// flushed or trimmed) in the middle of a chunk and one just after an
// extension both recover every synced record, and the log goes on from
// the end of the valid records, not from the end of the file.
func TestDirStoreSegment(t *testing.T) {
	dir := t.TempDir()
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	size := func() int64 {
		st, err := os.Stat(filepath.Join(dir, logName))
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	l := Open(store)
	if _, err := l.Recover(); err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	add := func(n, bytesEach int) {
		t.Helper()
		batch := make([][]byte, n)
		for i := range batch {
			batch[i] = bytes.Repeat([]byte{byte('a' + len(want)%26)}, bytesEach)
			want = append(want, batch[i])
		}
		if err := l.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	crashAndRecover := func() {
		t.Helper()
		l.seg.(*dirSegment).f.Close() // the process dies: no Close of ours runs
		l = Open(store)
		rec, err := l.Recover()
		if err != nil {
			t.Fatal(err)
		}
		if rec.Truncated {
			t.Fatalf("recovered as truncated: %s", rec.Reason)
		}
		wantRecords(t, rec.Records, want)
		data, err := l.readAll(logName)
		if err != nil {
			t.Fatal(err)
		}
		if valid := DecodeAll(data).ValidBytes; l.end != valid || l.end >= size() {
			t.Fatalf("write offset %d after recovery, want the valid end %d inside the %d-byte file", l.end, valid, size())
		}
	}

	add(3, 100)
	if got := size(); got != segChunk {
		t.Fatalf("segment is %d bytes after the first append, want one %d-byte chunk", got, segChunk)
	}
	crashAndRecover() // mid-chunk
	add(2, 100)
	if got := size(); got != segChunk {
		t.Fatalf("segment is %d bytes: an append inside the chunk changed the file's size", got)
	}
	add(4, segChunk/4) // crosses the end: extended before the write
	if got := size(); got != 2*segChunk {
		t.Fatalf("segment is %d bytes after crossing the first chunk, want %d", got, 2*segChunk)
	}
	crashAndRecover() // right after an extension
	add(1, 100)
	if st := l.Stats(); st.Bytes != int64(headerSize+100) {
		t.Fatalf("stats = %+v: zero fill counted as appended bytes", st)
	}
	crashAndRecover()

	// A checkpoint empties the segment; the next append starts a chunk.
	if err := l.Checkpoint([]byte("snap")); err != nil {
		t.Fatal(err)
	}
	if got := size(); got != 0 {
		t.Fatalf("segment is %d bytes after a checkpoint, want 0", got)
	}
	want = nil
	add(1, 10)
	crashAndRecover()
}

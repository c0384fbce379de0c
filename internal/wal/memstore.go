package wal

import (
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"sync"
)

// MemStore is the hermetic Store: files are byte slices, and the faults
// a real disk inflicts are injected deterministically by tests — a torn
// write (the tail of the last write never reached the platter) is a
// Truncate at a seeded byte offset, silent corruption is a FlipBit, and
// a failed fsync is armed with FailNextSyncs. The store itself is
// deterministic: identical operation sequences produce identical bytes,
// which is what lets recovery digests and metrics replays be compared
// byte-for-byte across runs.
type MemStore struct {
	mu        sync.Mutex
	files     map[string][]byte
	failSyncs int
	syncs     int64
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore {
	return &MemStore{files: make(map[string][]byte)}
}

// memFile is one open write handle. Writes land in the store
// immediately (the fault model injects loss explicitly rather than
// modeling a page cache); Sync is where an armed fsync failure fires.
type memFile struct {
	s    *MemStore
	name string
}

func (f *memFile) Write(p []byte) (int, error) {
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	f.s.files[f.name] = append(f.s.files[f.name], p...)
	return len(p), nil
}

// WriteAt makes memFile a Segment. The log writes each batch where the
// last one ended, which on a healthy store is the end of the file, so
// the image is what appending produced; only a write over a failed
// batch's or a torn tail's bytes lands inside it.
func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	data := f.s.files[f.name]
	if grow := off + int64(len(p)) - int64(len(data)); grow > 0 {
		data = append(data, make([]byte, grow)...)
	}
	copy(data[off:], p)
	f.s.files[f.name] = data
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	f.s.syncs++
	if f.s.failSyncs > 0 {
		f.s.failSyncs--
		return fmt.Errorf("wal: injected fsync failure on %s", f.name)
	}
	return nil
}

func (f *memFile) Close() error { return nil }

// Open opens the named file for reading (a point-in-time copy, so later
// writes do not race the reader).
func (s *MemStore) Open(name string) (io.ReadCloser, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.files[name]
	if !ok {
		return nil, fmt.Errorf("wal: open %s: %w", name, fs.ErrNotExist)
	}
	return io.NopCloser(bytes.NewReader(append([]byte(nil), data...))), nil
}

// Create truncates (or creates) the named file and opens it for writing.
func (s *MemStore) Create(name string) (File, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.files[name] = nil
	return &memFile{s: s, name: name}, nil
}

// Segment opens the named file for writing at offsets, creating it if
// absent.
func (s *MemStore) Segment(name string) (Segment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.files[name]; !ok {
		s.files[name] = nil
	}
	return &memFile{s: s, name: name}, nil
}

// Rename atomically replaces newName with oldName's content.
func (s *MemStore) Rename(oldName, newName string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.files[oldName]
	if !ok {
		return fmt.Errorf("wal: rename %s: %w", oldName, fs.ErrNotExist)
	}
	s.files[newName] = data
	delete(s.files, oldName)
	return nil
}

// Remove deletes the named file (no error if absent).
func (s *MemStore) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.files, name)
	return nil
}

// FailNextSyncs arms the next n Sync calls (across all files) to fail —
// the failed-fsync fault. The log counts these as append errors and
// keeps serving; the records involved may not survive a crash.
func (s *MemStore) FailNextSyncs(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failSyncs = n
}

// Truncate cuts the named file to size bytes — the torn-write fault
// when size lands inside the last record (a crash mid-write persisted
// only a prefix), or plain tail loss when it lands on a boundary. It
// reports whether the file existed and was long enough to cut.
func (s *MemStore) Truncate(name string, size int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.files[name]
	if !ok || size < 0 || size >= int64(len(data)) {
		return false
	}
	s.files[name] = data[:size]
	return true
}

// FlipBit inverts one bit — silent disk corruption. It reports whether
// the offset was in range.
func (s *MemStore) FlipBit(name string, off int64, bit uint) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.files[name]
	if !ok || off < 0 || off >= int64(len(data)) {
		return false
	}
	data[off] ^= 1 << (bit % 8)
	return true
}

// Size reports the named file's length (-1 when absent).
func (s *MemStore) Size(name string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.files[name]
	if !ok {
		return -1
	}
	return int64(len(data))
}

// Syncs reports how many Sync calls the store has served — the probe
// tests use to prove the log fsyncs on the append path.
func (s *MemStore) Syncs() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncs
}

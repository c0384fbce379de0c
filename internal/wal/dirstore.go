package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// DirStore is the Store over real os files in one directory — what the
// CLI binaries (cmd/digruber-broker) run the log on. Names are flat
// (no separators); Rename maps to os.Rename, which is atomic on POSIX
// filesystems, satisfying the checkpoint swap's crash contract.
type DirStore struct {
	dir string
}

// NewDirStore returns a store rooted at dir, creating it if needed.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return &DirStore{dir: dir}, nil
}

// path validates a flat name and joins it under the store directory.
func (s *DirStore) path(name string) (string, error) {
	if name == "" || strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
		return "", fmt.Errorf("wal: bad store file name %q", name)
	}
	return filepath.Join(s.dir, name), nil
}

// Open opens the named file for reading.
func (s *DirStore) Open(name string) (io.ReadCloser, error) {
	p, err := s.path(name)
	if err != nil {
		return nil, err
	}
	return os.Open(p)
}

// Create truncates (or creates) the named file and opens it for writing.
func (s *DirStore) Create(name string) (File, error) {
	p, err := s.path(name)
	if err != nil {
		return nil, err
	}
	return os.OpenFile(p, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
}

// Segment opens the named file for writing at offsets, creating it if
// absent.
func (s *DirStore) Segment(name string) (Segment, error) {
	p, err := s.path(name)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(p, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &dirSegment{f: f, size: st.Size()}, nil
}

// segChunk is how much zero-filled space a segment gains when a write
// would cross the end of the file.
const segChunk = 1 << 20

// dirSegment keeps the log's writes inside the file: a write that
// changes a file's size makes the fsync behind it commit the
// filesystem's journal as well as the data, and that is a third to a
// half of an append's fsync on ext4 (DESIGN.md, "The commit path"). So
// the size changes once per chunk, off the append path's common case,
// and the appends in between overwrite zeros.
type dirSegment struct {
	f    *os.File
	size int64
}

func (s *dirSegment) WriteAt(p []byte, off int64) (int, error) {
	if end := off + int64(len(p)); end > s.size {
		// Whole chunks of zeros, synced before the write that needs them.
		grow := (end - s.size + segChunk - 1) / segChunk * segChunk
		if _, err := s.f.WriteAt(make([]byte, grow), s.size); err != nil {
			return 0, err
		}
		if err := s.f.Sync(); err != nil {
			return 0, err
		}
		s.size += grow
	}
	return s.f.WriteAt(p, off)
}

func (s *dirSegment) Sync() error  { return s.f.Sync() }
func (s *dirSegment) Close() error { return s.f.Close() }

// Rename atomically replaces newName with oldName's content.
func (s *DirStore) Rename(oldName, newName string) error {
	po, err := s.path(oldName)
	if err != nil {
		return err
	}
	pn, err := s.path(newName)
	if err != nil {
		return err
	}
	return os.Rename(po, pn)
}

// Remove deletes the named file (no error if absent).
func (s *DirStore) Remove(name string) error {
	p, err := s.path(name)
	if err != nil {
		return err
	}
	err = os.Remove(p)
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// Package wal is the decision point's durability layer: a write-ahead
// log of length-prefixed, CRC-checksummed records plus checkpointed
// snapshots with log compaction, over a pluggable Store. The package is
// deliberately payload-agnostic — it frames and recovers opaque byte
// records; the digruber layer decides what a record means — so the
// decoder can be fuzzed and the whole package stays free of wire types.
//
// Two stores ship with it: MemStore, an in-memory store with
// deterministic fault injection (torn writes, bit flips, truncation,
// failed fsync) for hermetic tests, and DirStore over real os files for
// the CLI binaries, which keeps the log segment's space zero-filled
// ahead of the writes so that an append never changes the file's size.
package wal

import "io"

// File is an open store file being written: a writer with the two
// durability verbs the log needs. Sync is the fsync barrier — data
// written before a successful Sync survives a crash.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// Segment is the open log segment. The log tracks the end of its valid
// records itself and writes each batch at that offset, so a batch that
// failed half-way is overwritten by the next one instead of sitting in
// front of it. Bytes of the file that were never written read as zeros
// (see DecodeAll's end mark); a store may hold any number of them past
// the last write.
type Segment interface {
	io.WriterAt
	Sync() error
	Close() error
}

// Store abstracts the directory a log lives in. Implementations must
// make Rename atomic with respect to crashes (the checkpoint swap
// depends on it) and must return an error satisfying
// errors.Is(err, fs.ErrNotExist) from Open when the name is absent.
type Store interface {
	// Open opens the named file for reading from the start.
	Open(name string) (io.ReadCloser, error)
	// Create opens the named file for writing, truncating any previous
	// content.
	Create(name string) (File, error)
	// Segment opens the named file for writing at offsets of the
	// caller's choosing, creating it if absent and keeping its content
	// if not.
	Segment(name string) (Segment, error)
	// Rename atomically replaces newName with oldName's content.
	Rename(oldName, newName string) error
}

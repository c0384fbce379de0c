package wire

import (
	"slices"
	"sync"
	"unsafe"
)

// maxParked bounds each free list. A list only grows to the number of
// goroutines that were inside its owner at once, so the bound caps what
// hostile bodies (one decoder per distinct prefix) can make it hold.
const maxParked = 16

// maxRetained is the one retention rule: storage above it is never kept
// for reuse — not on a list, not as an encoder's buffer, not as a
// connection's message buffer — so that one multi-megabyte body (a full
// SnapshotReply) is garbage once sent, not capacity held for the life of
// the process. A 300-load QueryReply is 11 KB encoded and 14 KB decoded.
const maxRetained = 64 << 10

// freeList is a bounded LIFO of idle values under a mutex. It is not a
// sync.Pool: the collector empties a pool, and the allocation counts the
// benchmark bounds to 1 % then wander with its cycles (DESIGN.md "Wire
// body codec").
type freeList[T any] struct {
	mu    sync.Mutex
	items []T
}

// take pops the most recently put value.
func (l *freeList[T]) take() (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		return x, false
	}
	x = l.items[n-1]
	clear(l.items[n-1:]) // the list does not pin what it handed out
	l.items = l.items[:n-1]
	return x, true
}

// put parks x, or lets it go when the list is full.
func (l *freeList[T]) put(x T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.items) < maxParked {
		l.items = append(l.items, x)
	}
}

// holds reports whether is holds of a parked value.
func (l *freeList[T]) holds(is func(T) bool) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.ContainsFunc(l.items, is)
}

// SliceList is a free list of slice storage with one owner per slice:
// whoever Takes a slice has it to itself until it Puts it back, and a
// slice that is never put back is merely garbage. The zero value is an
// empty list.
type SliceList[T any] struct {
	l freeList[[]T]
}

// Take returns an empty slice with room for n elements: the one put
// last if it fits, else a new one of exactly that capacity — the parked
// one, too small, is let go, so a list shared by small and large users
// settles on storage that serves both. A nil list always allocates.
func (s *SliceList[T]) Take(n int) []T {
	if s != nil {
		if b, ok := s.l.take(); ok && cap(b) >= n {
			return b
		}
	}
	return make([]T, 0, n)
}

// Put gives b's storage back. The caller must hold the only reference to
// it. Nothing above maxRetained bytes is kept.
func (s *SliceList[T]) Put(b []T) {
	var elem T
	if cap(b) == 0 || uintptr(cap(b))*unsafe.Sizeof(elem) > maxRetained {
		return
	}
	if raceEnabled && s.l.holds(func(x []T) bool { return unsafe.SliceData(x) == unsafe.SliceData(b) }) {
		//lint:allow nopanic -- race builds only: a slice put twice has two owners, which only a bug in this repository can cause
		panic("wire: slice put on its free list twice")
	}
	s.l.put(b[:0])
}

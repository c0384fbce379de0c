package digruber

import (
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"digruber/internal/wire"
)

// The five small bodies of a decision — ScheduleArgs, ScheduleReply,
// QueryArgs, ReportArgs (its gruber.Dispatch through the record codec,
// recordcodec.go) and ReportReply —
// carry wire's value hook as QueryReply does: AppendGobValue writes the
// bytes gob writes for the value, field by field in the order
// wireschema.lock records, and ReadGobValue reads exactly those bytes
// back or declines, leaving the body to gob. A body this small costs gob
// more in bookkeeping than in bytes: a message buffer, a string per
// name, a marshalled time. TestSmallBodiesMatchGob and FuzzSmallBodies
// hold the hooks to gob.

// valueWriter appends a struct's gob value: each field that is not its
// zero value as its distance from the field written before it and then
// its value, and a zero byte to end the struct.
type valueWriter struct {
	b  []byte
	at int // the field written last, -1 before the first
}

func newValueWriter(b []byte) valueWriter { return valueWriter{b: b, at: -1} }

func (w *valueWriter) field(i int) {
	w.b = append(w.b, byte(i-w.at))
	w.at = i
}

func (w *valueWriter) string(i int, s string) {
	if s != "" {
		w.field(i)
		w.b = wire.AppendGobString(w.b, s)
	}
}

func (w *valueWriter) int(i int, v int64) {
	if v != 0 {
		w.field(i)
		w.b = wire.AppendGobInt(w.b, v)
	}
}

func (w *valueWriter) uint(i int, v uint64) {
	if v != 0 {
		w.field(i)
		w.b = wire.AppendGobUint(w.b, v)
	}
}

func (w *valueWriter) bool(i int, v bool) {
	if v {
		w.field(i)
		w.b = append(w.b, 1)
	}
}

// time writes t as gob writes a GobEncoder: its GobEncode bytes behind
// their length. Those are MarshalBinary's — a version byte, the seconds
// since year 1 and the nanoseconds big-endian, the zone offset in
// minutes (-1 for UTC) and, in version 2, its odd seconds — appended
// straight to the body from the public accessors (Time.AppendBinary
// would do the same, but it is newer than go.mod's go line).
// gob leaves out only the time whose every field is zero, which is not
// what Time.IsZero tests. It reports false for a zone offset
// MarshalBinary refuses, which gob refuses too.
func (w *valueWriter) time(i int, t time.Time) bool {
	if t == (time.Time{}) {
		return true
	}
	version, offsetMin, offsetSec := byte(1), int16(-1), int8(0)
	if t.Location() != time.UTC {
		_, offset := t.Zone()
		if offset%60 != 0 {
			version, offsetSec = 2, int8(offset%60)
		}
		offset /= 60
		if offset < -32768 || offset == -1 || offset > 32767 {
			return false
		}
		offsetMin = int16(offset)
	}
	sec := t.Unix() + unixToInternal
	nsec := t.Nanosecond()
	w.field(i)
	w.b = append(w.b, 14+version, version,
		byte(sec>>56), byte(sec>>48), byte(sec>>40), byte(sec>>32),
		byte(sec>>24), byte(sec>>16), byte(sec>>8), byte(sec),
		byte(nsec>>24), byte(nsec>>16), byte(nsec>>8), byte(nsec),
		byte(offsetMin>>8), byte(offsetMin))
	if version == 2 {
		w.b = append(w.b, byte(offsetSec))
	}
	return true
}

// unixToInternal is the seconds from the start of year 1, where
// MarshalBinary counts from, to the Unix epoch.
const unixToInternal = (1969*365 + 1969/4 - 1969/100 + 1969/400) * 24 * 60 * 60

// end closes the struct.
func (w *valueWriter) end() []byte { return append(w.b, 0) }

// valueReader reads a value as valueWriter writes one and nothing else:
// every field present is non-zero and after the one before it, every
// integer is in its shortest form. Any other byte sets bad, and the
// caller declines the body.
type valueReader struct {
	b   []byte
	bad bool
}

// next returns the number of the field that follows field at in a
// struct of n fields, or -1 at the struct's end (bad if it is not).
func (r *valueReader) next(at, n int) int {
	delta := r.uint()
	if r.bad || delta == 0 {
		return -1
	}
	if delta > uint64(n-1-at) {
		r.bad = true
		return -1
	}
	return at + int(delta)
}

func (r *valueReader) uint() uint64 {
	if r.bad {
		return 0
	}
	v, width := wire.ReadGobUint(r.b)
	if width == 0 {
		r.bad = true
		return 0
	}
	r.b = r.b[width:]
	return v
}

// nonZero reads an unsigned integer that gob would not have left out.
func (r *valueReader) nonZero() uint64 {
	v := r.uint()
	if v == 0 {
		r.bad = true
	}
	return v
}

func (r *valueReader) int64() int64 { return wire.GobInt(r.nonZero()) }

// int reads an int64 that an int holds; gob refuses one it does not.
func (r *valueReader) int() int {
	v := r.int64()
	if int64(int(v)) != v {
		r.bad = true
	}
	return int(v)
}

// bytes reads a string's bytes; they stay b's.
func (r *valueReader) bytes() []byte {
	n := r.nonZero()
	if r.bad || n > uint64(len(r.b)) {
		r.bad = true
		return nil
	}
	s := r.b[:n]
	r.b = r.b[n:]
	return s
}

func (r *valueReader) bool() bool {
	if r.uint() != 1 {
		r.bad = true
	}
	return !r.bad
}

// time reads a GobEncoder's bytes into t as gob does, through
// Time.UnmarshalBinary (GobDecode is that), so a time reads as gob reads
// it, location and all.
func (r *valueReader) time(t *time.Time) {
	b := r.bytes()
	if !r.bad && t.UnmarshalBinary(b) != nil {
		r.bad = true
	}
}

// end reports whether the value is read to its last byte and was as
// valueWriter writes one.
func (r *valueReader) end() bool { return !r.bad && len(r.b) == 0 }

// maxNames bounds internedNames: a grid's sites and its consumers' paths
// with room to spare.
const maxNames = 1024

// internedNames holds the owner paths and site names the decision's
// bodies carry, so that reading one allocates no string. Readers load the
// map without a lock; a name not in it is added to a copy under mu. A
// grid's names stop arriving once they are all in, so the copies end. A
// name that finds the table full starts a fresh one: names nobody reads
// again (a peer's made-up ones, a replayed log's) are dropped with it,
// and the names in use intern again on their next read instead of
// allocating for the life of the process.
var internedNames struct {
	mu sync.Mutex
	m  atomic.Pointer[map[string]string]
}

// internName returns b as a string, the same one every time the table
// holds it.
func internName(b []byte) string {
	if m := internedNames.m.Load(); m != nil {
		if s, ok := (*m)[string(b)]; ok {
			return s
		}
	}
	s := string(b)
	internedNames.mu.Lock()
	defer internedNames.mu.Unlock()
	var next map[string]string
	if m := internedNames.m.Load(); m != nil {
		if t, ok := (*m)[s]; ok {
			return t
		}
		if len(*m) < maxNames {
			next = maps.Clone(*m)
		}
	}
	if next == nil {
		next = make(map[string]string)
	}
	next[s] = s
	internedNames.m.Store(&next)
	return s
}

// name reads a string that is a name: interned.
func (r *valueReader) name() string {
	b := r.bytes()
	if r.bad {
		return ""
	}
	return internName(b)
}

// AppendGobValue implements wire's value hook.
func (a ScheduleArgs) AppendGobValue(b []byte) ([]byte, bool) {
	w := newValueWriter(b)
	w.string(0, a.JobID)
	w.string(1, a.Owner)
	w.int(2, int64(a.CPUs))
	w.int(3, int64(a.Runtime))
	return w.end(), true
}

// ReadGobValue implements wire's value hook, for a zero receiver.
func (a *ScheduleArgs) ReadGobValue(b []byte) bool {
	if *a != (ScheduleArgs{}) {
		return false // gob decodes into what is there
	}
	var v ScheduleArgs
	r := valueReader{b: b}
	for at := r.next(-1, 4); at >= 0; at = r.next(at, 4) {
		switch at {
		case 0:
			v.JobID = string(r.bytes())
		case 1:
			v.Owner = r.name()
		case 2:
			v.CPUs = r.int()
		case 3:
			v.Runtime = time.Duration(r.int64())
		}
	}
	if !r.end() {
		return false
	}
	*a = v
	return true
}

// AppendGobValue implements wire's value hook.
func (s ScheduleReply) AppendGobValue(b []byte) ([]byte, bool) {
	w := newValueWriter(b)
	w.string(0, s.Site)
	w.bool(1, s.OK)
	return w.end(), true
}

// ReadGobValue implements wire's value hook, for a zero receiver.
func (s *ScheduleReply) ReadGobValue(b []byte) bool {
	if *s != (ScheduleReply{}) {
		return false
	}
	var v ScheduleReply
	r := valueReader{b: b}
	for at := r.next(-1, 2); at >= 0; at = r.next(at, 2) {
		switch at {
		case 0:
			v.Site = r.name()
		case 1:
			v.OK = r.bool()
		}
	}
	if !r.end() {
		return false
	}
	*s = v
	return true
}

// AppendGobValue implements wire's value hook.
func (q QueryArgs) AppendGobValue(b []byte) ([]byte, bool) {
	w := newValueWriter(b)
	w.string(0, q.Owner)
	w.int(1, int64(q.CPUs))
	return w.end(), true
}

// ReadGobValue implements wire's value hook, for a zero receiver.
func (q *QueryArgs) ReadGobValue(b []byte) bool {
	if *q != (QueryArgs{}) {
		return false
	}
	var v QueryArgs
	r := valueReader{b: b}
	for at := r.next(-1, 2); at >= 0; at = r.next(at, 2) {
		switch at {
		case 0:
			v.Owner = r.name()
		case 1:
			v.CPUs = r.int()
		}
	}
	if !r.end() {
		return false
	}
	*q = v
	return true
}

// AppendGobValue implements wire's value hook. gob writes a struct field
// even when it is zero: the Dispatch is always there, if only as its
// terminator.
func (a ReportArgs) AppendGobValue(b []byte) ([]byte, bool) {
	w := newValueWriter(b)
	w.field(0)
	var ok bool
	if w.b, ok = appendDispatch(w.b, &a.Dispatch); !ok {
		return b, false
	}
	return w.end(), true
}

// ReadGobValue implements wire's value hook, for a zero receiver.
func (a *ReportArgs) ReadGobValue(b []byte) bool {
	if *a != (ReportArgs{}) {
		return false
	}
	var v ReportArgs
	r := valueReader{b: b}
	if r.next(-1, 1) != 0 {
		return false // the Dispatch is always written
	}
	readDispatch(&r, &v.Dispatch)
	if r.next(0, 1) >= 0 || !r.end() {
		return false
	}
	*a = v
	return true
}

// AppendGobValue implements wire's value hook.
func (a ReportReply) AppendGobValue(b []byte) ([]byte, bool) {
	w := newValueWriter(b)
	w.bool(0, a.OK)
	return w.end(), true
}

// ReadGobValue implements wire's value hook, for a zero receiver.
func (a *ReportReply) ReadGobValue(b []byte) bool {
	if *a != (ReportReply{}) {
		return false
	}
	var v ReportReply
	r := valueReader{b: b}
	for at := r.next(-1, 1); at >= 0; at = r.next(at, 1) {
		v.OK = r.bool()
	}
	if !r.end() {
		return false
	}
	*a = v
	return true
}

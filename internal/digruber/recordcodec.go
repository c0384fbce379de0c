package digruber

import (
	"time"

	"digruber/internal/gossip"
	"digruber/internal/gruber"
	"digruber/internal/wire"
)

// Every body that carries dispatch records — ReportArgs, ExchangeArgs,
// GossipArgs, GossipReply, SnapshotReply — and the write-ahead walEntry
// write and read them with one codec: appendDispatch and readDispatch,
// the bytes gob writes for a gruber.Dispatch, field by field in the
// order its definitions give (the definitions rows of
// testdata/wire-bytes.golden pin them). The bodies carry wire's value hook as
// the small bodies do, and so does walEntry, whose records the committer
// writes and replay reads as wire bodies (durability.go).
// TestRecordBodiesMatchGob and FuzzRecordBodies hold them to gob, which
// stays the path for every value a hook declines.

// records is the storage of the record slices the hooks decode. The
// Exchange, Gossip and Snapshot paths put a slice back with putRecords
// once the engine has copied its records out (DESIGN.md "Who owns a
// buffer"); anyone else who decodes such a body keeps its records.
var records wire.SliceList[gruber.Dispatch]

// putRecords gives a decoded record slice back to records. The caller
// holds the only reference to it.
func putRecords(ds []gruber.Dispatch) {
	clear(ds) // the list does not pin the records' strings
	records.Put(ds)
}

// appendDispatch appends d's gob struct value. It reports false for a
// time gob cannot marshal, which gob refuses too.
func appendDispatch(b []byte, d *gruber.Dispatch) ([]byte, bool) {
	w := newValueWriter(b)
	w.string(0, d.JobID)
	w.string(1, d.Site)
	w.string(2, d.Owner)
	w.int(3, int64(d.CPUs))
	w.int(4, int64(d.Runtime))
	if !w.time(5, d.At) {
		return b, false
	}
	w.string(6, d.Origin)
	w.uint(7, d.Seq)
	return w.end(), true
}

// readDispatch reads one Dispatch struct value, as appendDispatch writes
// it, into the zero d. The names are interned; JobID is the one string a
// record allocates.
func readDispatch(r *valueReader, d *gruber.Dispatch) {
	for at := r.next(-1, 8); at >= 0; at = r.next(at, 8) {
		switch at {
		case 0:
			d.JobID = string(r.bytes())
		case 1:
			d.Site = r.name()
		case 2:
			d.Owner = r.name()
		case 3:
			d.CPUs = r.int()
		case 4:
			d.Runtime = time.Duration(r.int64())
		case 5:
			r.time(&d.At)
		case 6:
			d.Origin = r.name()
		case 7:
			d.Seq = r.nonZero()
		}
	}
}

// records writes a record slice field: gob leaves out an empty slice and
// writes every element, a zero one as its terminator alone.
func (w *valueWriter) records(i int, ds []gruber.Dispatch) bool {
	if len(ds) == 0 {
		return true
	}
	w.field(i)
	w.b = wire.AppendGobUint(w.b, uint64(len(ds)))
	for k := range ds {
		var ok bool
		if w.b, ok = appendDispatch(w.b, &ds[k]); !ok {
			return false
		}
	}
	return true
}

// count reads a slice's length: never zero (gob leaves an empty slice
// out), and no more elements than bytes are left, as every element is at
// least its terminator.
func (r *valueReader) count() int {
	n := r.nonZero()
	if r.bad || n > uint64(len(r.b)) {
		r.bad = true
		return 0
	}
	return int(n)
}

// records reads a record slice field into storage from records. The
// length is the sender's claim: a record with a time is over sixteen
// bytes, so room for that many of what is left holds a real slice in one
// allocation, and a false claim grows no larger than seven times the
// bytes it came in.
func (r *valueReader) records() []gruber.Dispatch {
	n := r.count()
	if r.bad {
		return nil
	}
	ds := records.Take(min(n, len(r.b)/16+1))
	for k := 0; k < n && !r.bad; k++ {
		ds = append(ds, gruber.Dispatch{})
		readDispatch(r, &ds[k])
	}
	if r.bad {
		putRecords(ds)
		return nil
	}
	return ds
}

func (w *valueWriter) cursors(i int, cs []gossip.Cursor) {
	if len(cs) == 0 {
		return
	}
	w.field(i)
	w.b = wire.AppendGobUint(w.b, uint64(len(cs)))
	for _, c := range cs {
		in := newValueWriter(w.b)
		in.string(0, c.Origin)
		in.uint(1, c.Seq)
		w.b = in.end()
	}
}

// cursors reads a digest. A cursor with an origin is over eight bytes;
// the count is a claim, as records' is.
func (r *valueReader) cursors() []gossip.Cursor {
	n := r.count()
	cs := make([]gossip.Cursor, 0, min(n, len(r.b)/8+1))
	for k := 0; k < n && !r.bad; k++ {
		var c gossip.Cursor
		for at := r.next(-1, 2); at >= 0; at = r.next(at, 2) {
			switch at {
			case 0:
				c.Origin = r.name()
			case 1:
				c.Seq = r.nonZero()
			}
		}
		cs = append(cs, c)
	}
	return cs
}

func (w *valueWriter) members(i int, ms []gossip.Member) {
	if len(ms) == 0 {
		return
	}
	w.field(i)
	w.b = wire.AppendGobUint(w.b, uint64(len(ms)))
	for _, m := range ms {
		in := newValueWriter(w.b)
		in.string(0, m.Name)
		in.string(1, m.Node)
		in.string(2, m.Addr)
		w.b = in.end()
	}
}

// members reads a membership sample, its count a claim as cursors' is.
// Only the point's name is interned: nothing on the decision path reads
// a member's node or address, and the name table is bounded.
func (r *valueReader) members() []gossip.Member {
	n := r.count()
	ms := make([]gossip.Member, 0, min(n, len(r.b)/8+1))
	for k := 0; k < n && !r.bad; k++ {
		var m gossip.Member
		for at := r.next(-1, 3); at >= 0; at = r.next(at, 3) {
			switch at {
			case 0:
				m.Name = r.name()
			case 1:
				m.Node = string(r.bytes())
			case 2:
				m.Addr = string(r.bytes())
			}
		}
		ms = append(ms, m)
	}
	return ms
}

// AppendGobValue implements wire's value hook. A body that carries USLA
// entries is gob's: the codec writes records, not policy.
func (a ExchangeArgs) AppendGobValue(b []byte) ([]byte, bool) {
	if len(a.USLAs) > 0 {
		return b, false
	}
	w := newValueWriter(b)
	w.string(0, a.From)
	if !w.records(1, a.Dispatches) {
		return b, false
	}
	return w.end(), true
}

// ReadGobValue implements wire's value hook, for a zero receiver. A body
// with a USLAs field is gob's, and is declined before a record is built.
func (a *ExchangeArgs) ReadGobValue(b []byte) bool {
	if a.From != "" || a.Dispatches != nil || a.USLAs != nil || carriesUSLAs(b) {
		return false // gob decodes into what is there, and reads USLAs
	}
	var v ExchangeArgs
	r := valueReader{b: b}
	for at := r.next(-1, 2); at >= 0; at = r.next(at, 2) {
		switch at {
		case 0:
			v.From = r.name()
		case 1:
			v.Dispatches = r.records()
		}
	}
	if !r.end() {
		putRecords(v.Dispatches)
		return false
	}
	*a = v
	return true
}

// carriesUSLAs reports whether an ExchangeArgs value goes on past its
// records to a third field, skimming the records without building them.
// A value the skim finds malformed is left to the reader to decline.
func carriesUSLAs(b []byte) bool {
	r := valueReader{b: b}
	for at := r.next(-1, 3); at >= 0; at = r.next(at, 3) {
		switch at {
		case 0:
			r.bytes()
		case 1:
			for n := r.count(); n > 0 && !r.bad; n-- {
				skipDispatch(&r)
			}
		case 2:
			return true
		}
	}
	return false
}

// skipDispatch steps over one Dispatch struct value: its strings and
// time are length-prefixed bytes, the rest integers.
func skipDispatch(r *valueReader) {
	for at := r.next(-1, 8); at >= 0; at = r.next(at, 8) {
		switch at {
		case 0, 1, 2, 5, 6:
			r.bytes()
		default:
			r.nonZero()
		}
	}
}

// AppendGobValue implements wire's value hook.
func (a GossipArgs) AppendGobValue(b []byte) ([]byte, bool) {
	w := newValueWriter(b)
	w.string(0, a.From)
	w.cursors(1, a.Digest)
	if !w.records(2, a.Records) {
		return b, false
	}
	w.members(3, a.Members)
	return w.end(), true
}

// ReadGobValue implements wire's value hook, for a zero receiver.
func (a *GossipArgs) ReadGobValue(b []byte) bool {
	if a.From != "" || a.Digest != nil || a.Records != nil || a.Members != nil {
		return false
	}
	var v GossipArgs
	r := valueReader{b: b}
	for at := r.next(-1, 4); at >= 0; at = r.next(at, 4) {
		switch at {
		case 0:
			v.From = r.name()
		case 1:
			v.Digest = r.cursors()
		case 2:
			v.Records = r.records()
		case 3:
			v.Members = r.members()
		}
	}
	if !r.end() {
		putRecords(v.Records)
		return false
	}
	*a = v
	return true
}

// AppendGobValue implements wire's value hook.
func (g GossipReply) AppendGobValue(b []byte) ([]byte, bool) {
	w := newValueWriter(b)
	w.string(0, g.From)
	w.cursors(1, g.Digest)
	if !w.records(2, g.Records) {
		return b, false
	}
	return w.end(), true
}

// ReadGobValue implements wire's value hook, for a zero receiver.
func (g *GossipReply) ReadGobValue(b []byte) bool {
	if g.From != "" || g.Digest != nil || g.Records != nil {
		return false
	}
	var v GossipReply
	r := valueReader{b: b}
	for at := r.next(-1, 3); at >= 0; at = r.next(at, 3) {
		switch at {
		case 0:
			v.From = r.name()
		case 1:
			v.Digest = r.cursors()
		case 2:
			v.Records = r.records()
		}
	}
	if !r.end() {
		putRecords(v.Records)
		return false
	}
	*g = v
	return true
}

// AppendGobValue implements wire's value hook.
func (s SnapshotReply) AppendGobValue(b []byte) ([]byte, bool) {
	w := newValueWriter(b)
	w.string(0, s.From)
	if !w.records(1, s.Dispatches) {
		return b, false
	}
	return w.end(), true
}

// ReadGobValue implements wire's value hook, for a zero receiver.
func (s *SnapshotReply) ReadGobValue(b []byte) bool {
	if s.From != "" || s.Dispatches != nil {
		return false
	}
	var v SnapshotReply
	r := valueReader{b: b}
	for at := r.next(-1, 2); at >= 0; at = r.next(at, 2) {
		switch at {
		case 0:
			v.From = r.name()
		case 1:
			v.Dispatches = r.records()
		}
	}
	if !r.end() {
		putRecords(v.Dispatches)
		return false
	}
	*s = v
	return true
}

// AppendGobValue writes en's gob value, the D always (gob writes a
// struct field even when it is zero).
func (en walEntry) AppendGobValue(b []byte) ([]byte, bool) {
	w := newValueWriter(b)
	w.field(0)
	var ok bool
	if w.b, ok = appendDispatch(w.b, &en.D); !ok {
		return b, false
	}
	w.bool(1, en.Logged)
	return w.end(), true
}

// ReadGobValue reads what AppendGobValue writes into the zero en.
func (en *walEntry) ReadGobValue(b []byte) bool {
	if *en != (walEntry{}) {
		return false
	}
	var v walEntry
	r := valueReader{b: b}
	if r.next(-1, 2) != 0 {
		return false // the D is always written
	}
	readDispatch(&r, &v.D)
	at := r.next(0, 2)
	if at == 1 {
		v.Logged = r.bool()
		at = r.next(1, 2)
	}
	if at >= 0 || !r.end() {
		return false
	}
	*en = v
	return true
}

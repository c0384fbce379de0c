package digruber

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"digruber/internal/gruber"
	"digruber/internal/wire"
)

// valueFraming splits a body of v's type from this process into what
// comes before its value — the type definitions, and the value message's
// type id — and returns a function that frames any value bytes the same
// way, and one that takes the value bytes out of a body so framed.
func valueFraming(t testing.TB, v interface{}) (frame func(value []byte) []byte, value func(body []byte) []byte) {
	t.Helper()
	whole := freshGob(t, v)
	off := 0
	for {
		size, n := wire.ReadGobUint(whole[off:])
		if n == 0 || off+n+int(size) > len(whole) {
			t.Fatalf("not a gob stream at %d: % x", off, whole)
		}
		if off+n+int(size) == len(whole) {
			_, idWidth := wire.ReadGobUint(whole[off+n:])
			prefix, id := whole[:off], whole[off+n:off+n+idWidth]
			frame = func(value []byte) []byte {
				b := wire.AppendGobUint(bytes.Clone(prefix), uint64(len(id)+len(value)))
				return append(append(b, id...), value...)
			}
			value = func(body []byte) []byte {
				if !bytes.HasPrefix(body, prefix) {
					t.Fatalf("a body opens unlike this process's: % x", body)
				}
				_, n := wire.ReadGobUint(body[len(prefix):])
				return body[len(prefix)+n+len(id):]
			}
			return frame, value
		}
		off += n + int(size)
	}
}

// smallBodyCase holds one value of one of the five small bodies to gob:
// wire.Call sends a fresh gob.Encoder's bytes for it, or fails where gob
// fails, and decodes it as a fresh gob.Decoder does, on its first call
// (gob's own) and on later ones (the hook's); and the hook itself writes
// exactly the value gob wrote and reads it back, not declining it.
func smallBodyCase[T any](t *testing.T, p *codecProbe, name string, v T) {
	t.Helper()
	var buf bytes.Buffer
	gobErr := gob.NewEncoder(&buf).Encode(v)
	for round := 1; round <= 3; round++ {
		body, got, err := call(p, v, nil)
		if gobErr != nil {
			if err == nil {
				t.Errorf("%s: gob refuses it (%v), wire.Call sent it", name, gobErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s, call %d: %v", name, round, err)
		}
		if !bytes.Equal(body, buf.Bytes()) {
			t.Fatalf("%s, call %d: wire.Call sent\n% x\na fresh gob.Encoder writes\n% x", name, round, body, buf.Bytes())
		}
		if fresh := freshDecode[T](t, body); !reflect.DeepEqual(got, fresh) {
			t.Fatalf("%s, call %d: wire.Call decoded\n%+v\na fresh gob.Decoder reads\n%+v", name, round, got, fresh)
		}
	}
	own, ok := any(v).(gobValueAppender).AppendGobValue(nil)
	if gobErr != nil {
		if ok {
			t.Errorf("%s: gob refuses it (%v), AppendGobValue wrote % x", name, gobErr, own)
		}
		return
	}
	_, value := valueFraming(t, *new(T))
	if want := value(buf.Bytes()); !ok || !bytes.Equal(own, want) {
		t.Fatalf("%s: AppendGobValue wrote % x (%v), gob writes % x", name, own, ok, want)
	}
	var read T
	if !any(&read).(gobValueReader).ReadGobValue(own) {
		t.Fatalf("%s: ReadGobValue declined its own value % x", name, own)
	}
	if fresh := freshDecode[T](t, buf.Bytes()); !reflect.DeepEqual(read, fresh) {
		t.Fatalf("%s: ReadGobValue read %+v, a fresh gob.Decoder %+v", name, read, fresh)
	}
}

// TestSmallBodiesMatchGob runs the five small bodies through their value
// hooks at the edges of every field: zero, negative and extreme integers,
// names that are not ASCII, the zero time and times in UTC, in the local
// zone with a monotonic reading, in a named fixed zone, in a zone offset
// by seconds (the second binary form), and in one gob cannot marshal.
func TestSmallBodiesMatchGob(t *testing.T) {
	p := newCodecProbe(t)
	ints := []int{0, 1, -1, 63, 64, -64, -65, 1 << 31, math.MaxInt64, math.MinInt64}
	names := []string{"", "vo-01.group-02", "é.ü.ß", "сайт-7", "\x00", strings.Repeat("n", 300)}

	for _, n := range ints {
		smallBodyCase(t, p, fmt.Sprint("QueryArgs CPUs ", n), QueryArgs{Owner: "vo-01", CPUs: n})
		smallBodyCase(t, p, fmt.Sprint("ScheduleArgs CPUs ", n), ScheduleArgs{JobID: "j", CPUs: n})
		smallBodyCase(t, p, fmt.Sprint("ScheduleArgs Runtime ", n), ScheduleArgs{Owner: "o", Runtime: time.Duration(n)})
	}
	for _, s := range names {
		smallBodyCase(t, p, fmt.Sprintf("QueryArgs Owner %q", s), QueryArgs{Owner: s})
		smallBodyCase(t, p, fmt.Sprintf("ScheduleArgs JobID %q", s), ScheduleArgs{JobID: s, CPUs: 2})
		smallBodyCase(t, p, fmt.Sprintf("ScheduleArgs Owner %q", s), ScheduleArgs{JobID: "j", Owner: s, CPUs: 2, Runtime: time.Hour})
		for _, ok := range []bool{false, true} {
			smallBodyCase(t, p, fmt.Sprintf("ScheduleReply %q %v", s, ok), ScheduleReply{Site: s, OK: ok})
		}
	}
	smallBodyCase(t, p, "ReportReply zero", ReportReply{})
	smallBodyCase(t, p, "ReportReply OK", ReportReply{OK: true})

	full := gruber.Dispatch{JobID: "client-007-job-00042", Site: "site-123", Owner: "vo-03.group-07", CPUs: 1,
		Runtime: 15 * time.Minute, At: time.Date(2005, 11, 12, 9, 30, 0, 123, time.UTC), Origin: "dp-2", Seq: 99}
	edge := func(name string, set func(*gruber.Dispatch)) {
		d := full
		set(&d)
		smallBodyCase(t, p, "ReportArgs "+name, ReportArgs{Dispatch: d})
	}
	smallBodyCase(t, p, "ReportArgs zero", ReportArgs{})
	edge("every field", func(*gruber.Dispatch) {})
	edge("only At", func(d *gruber.Dispatch) { *d = gruber.Dispatch{At: full.At} })
	edge("only Seq", func(d *gruber.Dispatch) { *d = gruber.Dispatch{Seq: 1} })
	for _, n := range ints {
		edge(fmt.Sprint("CPUs ", n), func(d *gruber.Dispatch) { d.CPUs = n })
		edge(fmt.Sprint("Runtime ", n), func(d *gruber.Dispatch) { d.Runtime = time.Duration(n) })
	}
	for _, seq := range []uint64{0, 1, 127, 128, math.MaxUint64} {
		edge(fmt.Sprint("Seq ", seq), func(d *gruber.Dispatch) { d.Seq = seq })
	}
	for _, s := range names {
		edge(fmt.Sprintf("JobID %q", s), func(d *gruber.Dispatch) { d.JobID = s })
		edge(fmt.Sprintf("Site %q", s), func(d *gruber.Dispatch) { d.Site = s })
		edge(fmt.Sprintf("Owner %q", s), func(d *gruber.Dispatch) { d.Owner = s })
		edge(fmt.Sprintf("Origin %q", s), func(d *gruber.Dispatch) { d.Origin = s })
	}
	times := map[string]time.Time{
		"zero":                  {},
		"the zero instant, CET": time.Time{}.In(time.FixedZone("CET", 60*60)),
		"the Unix epoch":        time.Unix(0, 0),
		"UTC":                   full.At,
		"local, monotonic":      time.Now(),
		"year 1":                time.Date(1, 1, 1, 0, 0, 0, 1, time.UTC),
		"year 9999":             time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		"a named fixed zone":    full.At.In(time.FixedZone("CEST", 2*60*60)),
		"a zone west of UTC":    full.At.In(time.FixedZone("", -5*60*60)),
		"a zone of seconds":     full.At.In(time.FixedZone("LMT", 5*60*60+30)),
		"zone offset -1 min":    full.At.In(time.FixedZone("bad", -60)),
		"zone offset too wide":  full.At.In(time.FixedZone("wide", 40000*60)),
	}
	for name, at := range times {
		edge("At "+name, func(d *gruber.Dispatch) { d.At = at })
	}
}

// smallBodyDeclines is what the hooks must not take: each byte string is
// what AppendGobValue never writes for the named type. gob reads some of
// them and refuses others; either way the verdict must be gob's.
var smallBodyDeclines = map[string][][]byte{
	"QueryArgs": {
		{}, {1}, {0, 0}, {3, 1, 0}, // nothing, no end, a byte after it, a field past the last
		{1, 0, 0},            // an empty owner written out
		{2, 0, 0},            // CPUs zero written out
		{2, 0xfe, 0, 2, 0},   // CPUs in three bytes
		{1, 3, 'a', 'b', 0},  // an owner longer than the bytes
		{2, 2, 1, 1, 'a', 0}, // a third field
	},
	"ScheduleArgs": {
		{5, 2, 0},                            // a fifth field
		{1, 1, 'j', 1, 1, 'o', 0, 0},         // a byte after the end
		{4, 0xf8, 0, 0, 0, 0, 0, 0, 0, 2, 0}, // Runtime in nine bytes
	},
	"ScheduleReply": {
		{2, 2, 0}, // OK as 2: gob reads true
		{2, 0, 0}, // OK false written out
		{1, 1, 's', 1, 1, 0, 0},
	},
	"ReportArgs": {
		{0},                  // no Dispatch at all: gob reads a zero one
		{1, 0, 1, 0, 0},      // a second field for ReportArgs
		{1, 6, 1, 'x', 0, 0}, // At as one byte
		{1, 6, 15, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, // At not a time
		{1, 8, 0, 0, 0}, // Seq zero written out
		{1, 9, 1, 0, 0}, // a ninth Dispatch field
	},
	"ReportReply": {{1, 2, 0}, {1, 0, 0}, {2, 1, 0}, {0, 0}},
}

// checkSmallBodyValue holds what ReadGobValue makes of value bytes data as
// a T, and wire.Call of them framed as this build frames a T and as a
// whole body, to the codec's contract (bodyVerdict), and leaves the next
// valid body decoding right.
func checkSmallBodyValue[T any](t *testing.T, p *codecProbe, data []byte, valid T) {
	t.Helper()
	frame, _ := valueFraming(t, *new(T))
	var direct T
	ok := any(&direct).(gobValueReader).ReadGobValue(data)
	if !ok && !reflect.DeepEqual(direct, *new(T)) {
		t.Fatalf("%T: ReadGobValue refused % x and left %+v behind", direct, data, direct)
	}
	var fresh T
	freshErr := gob.NewDecoder(bytes.NewReader(frame(data))).Decode(&fresh)
	if ok && (freshErr != nil || !reflect.DeepEqual(direct, fresh)) {
		t.Fatalf("%T: ReadGobValue read %+v from % x; a fresh gob.Decoder: %+v, %v", direct, direct, data, fresh, freshErr)
	}
	for _, body := range [][]byte{frame(data), data} {
		_, got, err := call(p, *new(T), body)
		bodyVerdict(t, body, got, err, nil)
	}
	if _, got := roundTrip(t, p, valid, nil); !reflect.DeepEqual(got, valid) {
		t.Fatalf("%T: the next valid body decoded to %+v", got, got)
	}
}

// checkSmallBodies is checkSmallBodyValue for the five small bodies.
func checkSmallBodies(t *testing.T, p *codecProbe, data []byte) {
	t.Helper()
	checkSmallBodyValue(t, p, data, QueryArgs{Owner: "vo-00.group-00", CPUs: 1})
	checkSmallBodyValue(t, p, data, ScheduleArgs{JobID: "j-1", Owner: "vo-00", CPUs: 1, Runtime: time.Second})
	checkSmallBodyValue(t, p, data, ScheduleReply{Site: "site-001", OK: true})
	checkSmallBodyValue(t, p, data, ReportArgs{Dispatch: gruber.Dispatch{JobID: "j-2", Site: "site-002", Owner: "vo-01", CPUs: 2, Runtime: time.Minute, At: time.Unix(1e9, 5).UTC()}})
	checkSmallBodyValue(t, p, data, ReportReply{OK: true})
}

// TestSmallBodiesDeclineWhatGobMustRead stages bytes no hook writes: the
// hooks decline them, and what wire.Call returns is gob's verdict.
func TestSmallBodiesDeclineWhatGobMustRead(t *testing.T) {
	p := newCodecProbe(t)
	for typ, cases := range smallBodyDeclines {
		for _, data := range cases {
			var took bool
			switch typ {
			case "QueryArgs":
				took = new(QueryArgs).ReadGobValue(data)
			case "ScheduleArgs":
				took = new(ScheduleArgs).ReadGobValue(data)
			case "ScheduleReply":
				took = new(ScheduleReply).ReadGobValue(data)
			case "ReportArgs":
				took = new(ReportArgs).ReadGobValue(data)
			case "ReportReply":
				took = new(ReportReply).ReadGobValue(data)
			}
			if took {
				t.Errorf("%s: ReadGobValue took % x, which AppendGobValue never writes", typ, data)
			}
			checkSmallBodies(t, p, data)
		}
	}
	// A receiver that is not zero: gob decodes into what is there.
	own, _ := ScheduleReply{Site: "site-9"}.AppendGobValue(nil)
	if (&ScheduleReply{OK: true}).ReadGobValue(own) {
		t.Error("ReadGobValue read into a reply that was not zero")
	}
}

// FuzzSmallBodies holds the five small bodies' hooks to gob on arbitrary
// bytes, taken as the value of a body that opens as this process's own do
// (where ReadGobValue sees them first) and as a whole body: wire.Call and
// a fresh gob.Decoder agree on error-or-not and on the value, a refused
// receiver is left alone, and the next valid body still decodes.
func FuzzSmallBodies(f *testing.F) {
	p := newCodecProbe(f)
	for _, v := range []interface{}{
		QueryArgs{Owner: "vo-01.group-02", CPUs: 3},
		ScheduleArgs{JobID: "client-001-job-00001", Owner: "vo-01.group-02", CPUs: 1, Runtime: 15 * time.Minute},
		ScheduleReply{Site: "site-042", OK: true},
		ReportArgs{Dispatch: gruber.Dispatch{JobID: "j", Site: "s", Owner: "o", CPUs: 1, Runtime: time.Hour,
			At: time.Date(2005, 11, 12, 0, 0, 0, 0, time.FixedZone("CET", 3600)), Origin: "dp-0", Seq: 7}},
		ReportReply{OK: true},
	} {
		own, _ := v.(gobValueAppender).AppendGobValue(nil)
		f.Add(own)
		f.Add(own[:len(own)-1])
		f.Add(append(bytes.Clone(own), 0))
	}
	for _, cases := range smallBodyDeclines {
		for _, data := range cases {
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkSmallBodies(t, p, data) })
}

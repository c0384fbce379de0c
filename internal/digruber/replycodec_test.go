package digruber

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"digruber/internal/gruber"
	"digruber/internal/wire"
)

// gobValueAppender and gobValueReader are wire's value hook, named here
// so that the tests reach QueryReply's implementation as wire does,
// through the interface.
type gobValueAppender interface {
	AppendGobValue(b []byte) ([]byte, bool)
}

type gobValueReader interface {
	ReadGobValue(b []byte) bool
}

func appendValue(r QueryReply, b []byte) []byte {
	v, _ := gobValueAppender(r).AppendGobValue(b) // a QueryReply always has a value
	return v
}

func readValue(r *QueryReply, b []byte) bool { return gobValueReader(r).ReadGobValue(b) }

// gridReply is a reply shaped like the benchmark's: n sites named after
// grid, all five fields set.
func gridReply(grid string, n int) QueryReply {
	var r QueryReply
	for i := 0; i < n; i++ {
		r.Loads = append(r.Loads, gruber.SiteLoad{
			Name: fmt.Sprintf("%s-%03d", grid, i), TotalCPUs: 100 + i, EstFreeCPUs: 100 - i,
			Headroom: float64(i) / 7, TargetGap: -float64(i) - 0.25,
		})
	}
	return r
}

// sameReply is reflect.DeepEqual for replies, but for NaN, which it
// compares by its bits.
func sameReply(a, b QueryReply) bool {
	if (a.Loads == nil) != (b.Loads == nil) || len(a.Loads) != len(b.Loads) {
		return false
	}
	for i, x := range a.Loads {
		y := b.Loads[i]
		if x.Name != y.Name || x.TotalCPUs != y.TotalCPUs || x.EstFreeCPUs != y.EstFreeCPUs ||
			math.Float64bits(x.Headroom) != math.Float64bits(y.Headroom) ||
			math.Float64bits(x.TargetGap) != math.Float64bits(y.TargetGap) {
			return false
		}
	}
	return true
}

// freshReply is what a fresh gob.Decoder makes of body.
func freshReply(body []byte) (QueryReply, error) {
	var r QueryReply
	err := gob.NewDecoder(bytes.NewReader(body)).Decode(&r)
	return r, err
}

// replyFraming splits a QueryReply body of this process into what comes
// before its value — the type definitions, and the value message's type
// id — and returns a function that frames any value bytes the same way.
func replyFraming(t testing.TB) (body func(value []byte) []byte) {
	t.Helper()
	whole := freshGob(t, QueryReply{})
	off := 0
	for {
		size, n := wire.ReadGobUint(whole[off:])
		if n == 0 || off+n+int(size) > len(whole) {
			t.Fatalf("not a gob stream at %d: % x", off, whole)
		}
		if off+n+int(size) == len(whole) {
			_, idWidth := wire.ReadGobUint(whole[off+n:])
			prefix, id := whole[:off], whole[off+n:off+n+idWidth]
			return func(value []byte) []byte {
				b := wire.AppendGobUint(bytes.Clone(prefix), uint64(len(id)+len(value)))
				return append(append(b, id...), value...)
			}
		}
		off += n + int(size)
	}
}

// edgeReplies is replies of four loads, the second of which has one field
// at an edge of its type, and the shapes gob writes nothing for.
func edgeReplies() map[string]QueryReply {
	out := map[string]QueryReply{
		"nil loads":      {},
		"empty loads":    {Loads: []gruber.SiteLoad{}},
		"one zero load":  {Loads: make([]gruber.SiteLoad, 1)},
		"all zero loads": {Loads: make([]gruber.SiteLoad, 4)},
	}
	edge := func(name string, set func(*gruber.SiteLoad)) {
		r := gridReply("edge", 4)
		set(&r.Loads[1])
		out[name] = r
	}
	for _, v := range []int{0, -1, 63, 64, -64, -65, math.MaxInt64, math.MinInt64} {
		edge(fmt.Sprint("TotalCPUs ", v), func(l *gruber.SiteLoad) { l.TotalCPUs = v })
		edge(fmt.Sprint("EstFreeCPUs ", v), func(l *gruber.SiteLoad) { l.EstFreeCPUs = v })
	}
	nan := math.Float64frombits(0x7ff8000000000001)
	for _, v := range []float64{0, math.Copysign(0, -1), nan, -nan, math.Inf(1), math.Inf(-1), -1.5, 1, 256, math.SmallestNonzeroFloat64, math.MaxFloat64} {
		edge(fmt.Sprint("Headroom ", v, math.Signbit(v)), func(l *gruber.SiteLoad) { l.Headroom = v })
		edge(fmt.Sprint("TargetGap ", v, math.Signbit(v)), func(l *gruber.SiteLoad) { l.TargetGap = v })
	}
	edge("no name", func(l *gruber.SiteLoad) { l.Name = "" })
	edge("a 300-byte name", func(l *gruber.SiteLoad) { l.Name = strings.Repeat("n", 300) })
	edge("only a name", func(l *gruber.SiteLoad) { *l = gruber.SiteLoad{Name: "bare"} })
	edge("only the last field", func(l *gruber.SiteLoad) { *l = gruber.SiteLoad{TargetGap: 1} })
	return out
}

// TestQueryReplyValueMatchesGob is the value hook's licence: on every
// call, first or hundredth, wire.Call puts a fresh gob.Encoder's bytes
// on the wire for a reply and decodes them to a fresh gob.Decoder's
// value. (TestBodyCodecConcurrent does the same from 8 goroutines with 8
// grids' names, under -race in CI.)
func TestQueryReplyValueMatchesGob(t *testing.T) {
	p := newCodecProbe(t)
	cases := edgeReplies()
	for i, n := range []int{0, 1, 4, 300} {
		cases[fmt.Sprint(n, " seeded loads")] = QueryReply{Loads: filled[[]gruber.SiteLoad](int64(10+i), n)}
	}
	type decoded struct {
		name string
		got  QueryReply
		body []byte
	}
	var earlier []decoded
	for call := 1; call <= 100; call++ {
		for name, v := range cases {
			want := freshGob(t, v)
			body, got := roundTrip(t, p, v, nil)
			if !bytes.Equal(body, want) {
				t.Fatalf("%s, call %d: wire.Call sent\n%x\na fresh gob.Encoder writes\n%x", name, call, body, want)
			}
			fresh, err := freshReply(want)
			if err != nil {
				t.Fatal(err)
			}
			if !sameReply(got, fresh) {
				t.Fatalf("%s, call %d: wire.Call decoded\n%+v\na fresh gob.Decoder reads\n%+v", name, call, got, fresh)
			}
			if call == 1 || call == 50 {
				earlier = append(earlier, decoded{name, got, want})
			}
		}
	}
	for _, d := range earlier {
		if fresh, _ := freshReply(d.body); !sameReply(d.got, fresh) {
			t.Fatalf("%s: a value decoded earlier changed under later decodes", d.name)
		}
	}
}

// TestQueryReplyValueIsCanonicalOrGobs stages values AppendGobValue never
// writes: ReadGobValue must decline every one, so that what wire.Call
// returns is gob's verdict, and a reply staged after them decodes right.
func TestQueryReplyValueIsCanonicalOrGobs(t *testing.T) {
	p := newCodecProbe(t)
	frame := replyFraming(t)
	valid := gridReply("site", 4)
	value := appendValue(valid, nil)
	if !bytes.Equal(frame(value), freshGob(t, valid)) {
		t.Fatal("replyFraming does not rebuild a fresh encoder's body")
	}
	// value is 01 04, then per load 01 08 "site-00x" 01 <int> 01 <int> …
	first := 2
	cut := func(from, to int, with ...byte) []byte {
		return append(append(bytes.Clone(value[:from]), with...), value[to:]...)
	}
	declined := map[string][]byte{
		"empty":                        nil,
		"no terminator":                value[:len(value)-1],
		"cut inside a load":            value[:len(value)/2],
		"a byte after the end":         append(bytes.Clone(value), 0),
		"a count of zero":              {1, 0, 0},
		"a count past the bytes left":  cut(1, 2, 0x7f),
		"a count of 2^63":              cut(1, 2, 0xf8, 0x80, 0, 0, 0, 0, 0, 0, 0),
		"a count in nine bytes":        cut(1, 2, 0xf8, 0, 0, 0, 0, 0, 0, 0, 4),
		"a delta of 6":                 cut(first, first+1, 6),
		"a delta of 2^64-1":            cut(first, first+1, 0xf8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff),
		"a second field for the reply": cut(len(value)-1, len(value), 1, 0, 0),
		"a name twice":                 cut(first, first, value[first:first+10]...),
		"an empty name":                cut(first, first+10, 1, 0),
		"a name past the end":          cut(first+1, first+2, 0x7f),
		"an int of zero":               cut(first+10, first+13, 1, 0),
		"an int in three bytes":        cut(first+10, first+13, 1, 0xfe, 0, 200),
		"a float of zero":              {1, 1, 4, 0, 0, 0},
		"a float of -0.0":              {1, 1, 4, 0xff, 0x80, 0, 0},
		"a sixth field":                {1, 1, 5, 1, 1, 2, 0, 0},
	}
	for round := 0; round < 3; round++ {
		for name, v := range declined {
			var direct QueryReply
			if readValue(&direct, v) || direct.Loads != nil {
				t.Errorf("%s: ReadGobValue accepted % x (or touched its receiver: %+v)", name, v, direct)
			}
			body := frame(v)
			_, got, err := call(p, QueryReply{}, body)
			fresh, freshErr := freshReply(body)
			if (err == nil) != (freshErr == nil) {
				t.Errorf("%s: wire.Call: %v; a fresh gob.Decoder: %v", name, err, freshErr)
			} else if err == nil && !sameReply(got, fresh) {
				t.Errorf("%s: wire.Call decoded %+v, a fresh gob.Decoder reads %+v", name, got, fresh)
			}
			if _, got := roundTrip(t, p, valid, nil); !sameReply(got, valid) {
				t.Fatalf("after %s: a valid reply decoded to %+v", name, got)
			}
		}
	}

	// A receiver that holds loads already: gob would decode into them.
	used := QueryReply{Loads: make([]gruber.SiteLoad, 0, 8)}
	if readValue(&used, value) {
		t.Error("ReadGobValue filled a reply that was not empty")
	}
}

// allocatedBy returns the bytes the process allocated while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestQueryReplySharesNames pins what a reply costs to read: one
// allocation in a steady stream from one grid; gob's own cost and one
// slice of names more when two grids alternate; and, whatever is
// announced, no more bytes than a small multiple of what arrived.
func TestQueryReplySharesNames(t *testing.T) {
	emptyReplyLoads(t) // nothing here gives loads back: each read allocates its own
	a, b := gridReply("alpha", 300), gridReply("beta", 120)
	va, vb := appendValue(a, nil), appendValue(b, nil)
	var first QueryReply
	if !readValue(&first, va) || !sameReply(first, a) {
		t.Fatal("a valid value was refused or misread")
	}
	steady := testing.AllocsPerRun(100, func() {
		var r QueryReply
		if !readValue(&r, va) || len(r.Loads) != 300 {
			t.Fatal("a valid value was refused")
		}
	})
	if steady != 1 {
		t.Errorf("a reply from the grid just seen: %.1f allocations, want 1 (its loads)", steady)
	}
	// The first loads of the same grid share its names and do not
	// displace them.
	vfew := appendValue(QueryReply{Loads: a.Loads[:4]}, nil)
	few := testing.AllocsPerRun(100, func() {
		var r QueryReply
		if !readValue(&r, vfew) || len(r.Loads) != 4 {
			t.Fatal("a valid value was refused")
		}
	})
	if again := testing.AllocsPerRun(10, func() { readValue(new(QueryReply), va) }); few != 1 || again != 1 {
		t.Errorf("4 loads of a known grid: %.1f allocations, then the whole grid: %.1f; want 1 and 1", few, again)
	}

	var ra, rb QueryReply
	alternating := testing.AllocsPerRun(50, func() {
		ra, rb = QueryReply{}, QueryReply{}
		if !readValue(&ra, va) || !readValue(&rb, vb) {
			t.Fatal("a valid value was refused")
		}
	})
	if !sameReply(ra, a) || !sameReply(rb, b) || !sameReply(first, a) {
		t.Error("two grids alternating: a reply was misread, or one read earlier changed")
	}
	// Per reply: its loads, a string per name as gob makes, and the names
	// kept — a slice and the pointer's copy of its header.
	if want := float64(300 + 3 + 120 + 3); alternating > want {
		t.Errorf("two grids alternating: %.1f allocations a pair, want at most %.0f", alternating, want)
	}

	// The same through wire.Call, against a reply without the hook, which
	// the memoised gob decoder reads as it read QueryReply before.
	type plainReply struct{ Loads []gruber.SiteLoad }
	p := newCodecProbe(t)
	roundTrip(t, p, plainReply{a.Loads}, nil)
	gobs := testing.AllocsPerRun(50, func() {
		roundTrip(t, p, plainReply{a.Loads}, nil)
		roundTrip(t, p, plainReply{b.Loads}, nil)
	})
	hooks := testing.AllocsPerRun(50, func() {
		roundTrip(t, p, a, nil)
		roundTrip(t, p, b, nil)
	})
	if hooks > gobs+2 {
		t.Errorf("two grids alternating through wire.Call: %.1f allocations a pair, gob's decoder %.1f: want at most one more each", hooks, gobs)
	}

	// A count is a claim: one that the bytes left cannot hold costs
	// nothing, one they could hold costs in proportion to them.
	huge := append([]byte{1, 0xf8, 0x7f, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, va[3:]...)
	if n := allocatedBy(func() { readValue(new(QueryReply), huge) }); n > 1024 {
		t.Errorf("a count of 2^63-1 cost %d bytes of allocation", n)
	}
	claim := append(wire.AppendGobUint([]byte{1}, 4000), bytes.Repeat([]byte{9}, 4000)...)
	if n := allocatedBy(func() { readValue(new(QueryReply), claim) }); n > 8*uint64(len(claim)) {
		t.Errorf("a false count of 4000 over %d bytes cost %d bytes of allocation", len(claim), n)
	}
}

// FuzzQueryReplyValue holds the codec behind wire.Call to its contract on
// arbitrary bytes, taken both as the value of a QueryReply body that
// opens as this build's do (where ReadGobValue sees them first) and as a
// whole body: under this build's definitions, a fresh gob.Decoder's
// verdict — error or not, and the value; under any others, a refusal.
// ReadGobValue itself to allocating in proportion to its
// input and to leaving a refused receiver alone; and every input to
// leaving the next valid reply decoding right.
func FuzzQueryReplyValue(f *testing.F) {
	p := newCodecProbe(f)
	frame := replyFraming(f)
	valid := gridReply("site", 3)
	value := appendValue(valid, nil)
	flipped := bytes.Clone(value)
	flipped[len(flipped)/2] ^= 0x08
	for _, seed := range [][]byte{
		value, appendValue(QueryReply{}, nil), appendValue(gridReply("site", 300), nil),
		value[:len(value)-1], value[:len(value)/2], flipped, append(bytes.Clone(value), 0),
		append(append(bytes.Clone(value[:2]), value[2:12]...), value[2:]...), // a name twice
		append(append(bytes.Clone(value[:2]), 6), value[3:]...),              // a delta of 6
		append([]byte{1, 0xf8, 0, 0, 0, 0, 0, 0, 0, 3}, value[2:]...),        // a nine-byte count
		append([]byte{1, 0x7f}, value[2:]...),                                // a count past the bytes left
		{1, 1, 4, 0xff, 0x80, 0, 0}, {1, 1, 2, 0, 0, 0}, {}, {0}, {1},
		frame(value), freshGob(f, valid)[:40],
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var direct QueryReply
		var ok bool
		allocated := allocatedBy(func() { ok = readValue(&direct, data) })
		if !ok && direct.Loads != nil {
			t.Fatalf("ReadGobValue refused % x and left %+v behind", data, direct)
		}
		// Loads, names kept, a string per name: all in proportion to
		// loads that were there to read, at a byte or more each.
		if limit := uint64(256*len(data) + 1024); allocated > limit {
			t.Fatalf("ReadGobValue allocated %d bytes over %d of input", allocated, len(data))
		}
		for _, body := range [][]byte{frame(data), data} {
			_, got, err := call(p, QueryReply{}, body)
			bodyVerdict(t, body, got, err, sameReply)
		}
		if ok {
			if fresh, err := freshReply(frame(data)); err != nil || !sameReply(direct, fresh) {
				t.Fatalf("ReadGobValue read %+v; a fresh gob.Decoder: %+v, %v", direct, fresh, err)
			}
		}
		if _, got := roundTrip(t, p, valid, nil); !sameReply(got, valid) {
			t.Fatalf("the next valid reply decoded to %+v", got)
		}
	})
}

// BenchmarkQueryReplyValue reads the hook's own cost without the wire
// around it: one 300-load value written, and read with its names known.
func BenchmarkQueryReplyValue(b *testing.B) {
	reply := gridReply("site", 300)
	value := appendValue(reply, nil)
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(value)))
		buf := make([]byte, 0, len(value))
		for i := 0; i < b.N; i++ {
			buf = appendValue(reply, buf[:0])
		}
	})
	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(value)))
		for i := 0; i < b.N; i++ {
			var got QueryReply
			if !readValue(&got, value) || len(got.Loads) != 300 {
				b.Fatal("value refused")
			}
		}
	})
}

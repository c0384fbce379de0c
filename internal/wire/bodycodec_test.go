package wire

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// Fixtures shaped like the decision point's payloads (internal/digruber
// imports this package, so its own types are tested from there —
// TestBodyCodecMatchesFreshGob). They are not protocol structs and reach
// gob only through interface{} parameters, where the wireschema lint does
// not look for any.
type codecSchedule struct {
	JobID   string
	Owner   string
	CPUs    int
	Runtime time.Duration
}

type codecLoad struct {
	Name        string
	TotalCPUs   int
	EstFreeCPUs int
	Headroom    float64
	TargetGap   float64
}

type codecReply struct {
	Loads []codecLoad
	At    time.Time
	Note  []byte
}

// codecReplyV2 is codecReply as a later build would send it: one field
// appended, so its type definitions differ and its values still decode
// into a codecReply.
type codecReplyV2 struct {
	Loads []codecLoad
	At    time.Time
	Note  []byte
	Extra string
}

type codecLeaf struct{ N int }

// codecIface reaches an interface, so gob sends the concrete type's
// definition with the first value that carries it.
type codecIface struct{ V interface{} }

func init() { gob.Register(codecLeaf{}) }

func replyOf(n int) codecReply {
	r := codecReply{At: time.Date(2005, 11, 12, 0, 0, n, 0, time.UTC), Note: []byte{byte(n), 1, 2}}
	for i := 0; i < n; i++ {
		r.Loads = append(r.Loads, codecLoad{
			Name: fmt.Sprintf("site-%03d", i), TotalCPUs: 100 + i, EstFreeCPUs: i,
			Headroom: float64(i) / 7, TargetGap: -float64(i),
		})
	}
	return r
}

func freshEncode(t testing.TB, v interface{}) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// forget drops the memo entries of the values' types, so that a test
// that counts parked codecs starts from none whatever ran before it.
func forget(vs ...interface{}) {
	for _, v := range vs {
		bodyCodecs.Delete(reflect.TypeOf(v))
	}
}

// freshDecode decodes body into v (a pointer) with a new gob.Decoder —
// the reference decodeBody is held to.
func freshDecode(body []byte, v interface{}) error {
	return gob.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// parked reports how many encoders and decoders v's type has parked.
func parked(v interface{}) (encs, decs int) {
	c := codecFor(reflect.TypeOf(v))
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.encs.mu.Lock()
	defer c.encs.mu.Unlock()
	return len(c.encs.items), len(c.decs)
}

func TestEncodeBodyIsAFreshEncodersBytes(t *testing.T) {
	forget(codecSchedule{})
	values := []interface{}{
		codecSchedule{}, codecSchedule{JobID: "job-17", Owner: "uc.cs.grads", CPUs: 2, Runtime: time.Hour},
		replyOf(0), replyOf(1), replyOf(300), &codecSchedule{JobID: "by pointer"},
		7, "a bare string", []string{"a", "b"}, map[string]int{"k": 1}, struct{}{},
		codecIface{}, codecIface{V: codecLeaf{N: 1}}, codecIface{V: "builtin"}, codecIface{V: codecLeaf{N: 2}},
	}
	for i := 1; i <= 100; i++ {
		for _, v := range values {
			got, err := encodeBody(v)
			if err != nil {
				t.Fatalf("%T: %v", v, err)
			}
			if want := freshEncode(t, v); !bytes.Equal(got, want) {
				t.Fatalf("call %d, %#v:\n got %x\nwant %x", i, v, got, want)
			}
		}
	}
	if encs, _ := parked(codecSchedule{}); encs != 1 {
		t.Errorf("sequential encodes parked %d encoders, want 1", encs)
	}
	if c := codecFor(reflect.TypeOf(codecIface{})); c != nil {
		t.Error("a type that reaches an interface must bypass the memo")
	}
	if _, err := encodeBody(nil); err == nil {
		t.Error("encodeBody(nil) succeeded")
	}
	if _, err := encodeBody(make(chan int)); err == nil {
		t.Error("encodeBody(chan) succeeded")
	}
}

func TestDecodeBodyIsAFreshDecodersValue(t *testing.T) {
	forget(&codecReply{})
	var earlier []codecReply
	var bodies [][]byte
	for i := 0; i < 100; i++ {
		for _, n := range []int{0, 1, 300} {
			body := freshEncode(t, replyOf(n+i%3))
			var got, want codecReply
			if err := decodeBody(body, &got); err != nil {
				t.Fatal(err)
			}
			if err := freshDecode(body, &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("call %d: got %+v want %+v", i, got, want)
			}
			earlier, bodies = append(earlier, got), append(bodies, body)
		}
	}
	if _, decs := parked(&codecReply{}); decs != 1 {
		t.Errorf("sequential decodes parked %d decoders, want 1", decs)
	}
	// Nothing a parked decoder handed out earlier is backed by a buffer
	// it has since reused.
	for i, body := range bodies {
		var want codecReply
		if err := freshDecode(body, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(earlier[i], want) {
			t.Fatalf("value %d changed after later decodes", i)
		}
	}
}

// TestForeignAndBrokenBodiesTakeTheFreshPath feeds the warm entry bodies
// it must not serve from a parked decoder, each followed by a valid body
// that must still decode correctly.
func TestForeignAndBrokenBodiesTakeTheFreshPath(t *testing.T) {
	forget(&codecReply{})
	valid := freshEncode(t, replyOf(3))
	split := valueOffset(valid)
	if split <= 0 || split >= len(valid) {
		t.Fatalf("valueOffset = %d of %d", split, len(valid))
	}
	checkValid := func(after string) {
		t.Helper()
		var got codecReply
		if err := decodeBody(valid, &got); err != nil {
			t.Fatalf("valid body after %s: %v", after, err)
		}
		if !reflect.DeepEqual(got, replyOf(3)) {
			t.Fatalf("valid body after %s decoded to %+v", after, got)
		}
		if _, decs := parked(&got); decs < 1 {
			t.Fatalf("after %s no decoder is parked", after)
		}
	}
	checkValid("nothing")

	v2 := codecReplyV2{Loads: replyOf(2).Loads, Note: []byte("n"), Extra: "dropped"}
	for i := 0; i < 3; i++ {
		var got codecReply
		if err := decodeBody(freshEncode(t, v2), &got); err != nil {
			t.Fatal(err)
		}
		if want := (codecReply{Loads: v2.Loads, Note: v2.Note}); !reflect.DeepEqual(got, want) {
			t.Fatalf("appended-field body decoded to %+v", got)
		}
		checkValid("a body with other definitions")
	}
	if _, decs := parked(&codecReply{}); decs != 2 {
		t.Errorf("%d decoders parked, want one per prefix seen", decs)
	}

	flipped := bytes.Clone(valid)
	flipped[split+3] ^= 0x40
	broken := map[string][]byte{
		"empty":       nil,
		"prefix only": valid[:split],
		"value only":  valid[split:],
		"truncated":   valid[:len(valid)-2],
		"bit flip":    flipped,
		"other type":  freshEncode(t, codecSchedule{JobID: "x"}),
	}
	for name, body := range broken {
		var got, want codecReply
		err := decodeBody(body, &got)
		wantErr := freshDecode(body, &want)
		if (err == nil) != (wantErr == nil) {
			t.Errorf("%s: err = %v, a fresh decoder says %v", name, err, wantErr)
		}
		checkValid(name)
	}

	// Two values in one body: the first is decoded, as a fresh decoder
	// would, by a decoder that is not kept.
	_, before := parked(&codecReply{})
	var got codecReply
	if err := decodeBody(append(bytes.Clone(valid), valid[split:]...), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, replyOf(3)) {
		t.Fatalf("two-value body decoded to %+v", got)
	}
	if _, after := parked(&codecReply{}); after != before {
		t.Errorf("a two-value body changed the parked decoders (%d → %d)", before, after)
	}
	checkValid("two values")
}

// TestLateDefinitionsAreNeverPrimed decodes a body from a build that
// appended an interface field: gob sends the concrete type's definition
// in the middle of the value, so a decoder that read it once would
// refuse it the second time ("duplicate type received").
func TestLateDefinitionsAreNeverPrimed(t *testing.T) {
	forget(&codecSchedule{})
	body := freshEncode(t, struct {
		JobID string
		X     interface{}
	}{JobID: "job-17", X: codecLeaf{N: 1}})
	for i := 0; i < 3; i++ {
		var got codecSchedule
		if err := decodeBody(body, &got); err != nil || got.JobID != "job-17" {
			t.Fatalf("call %d: %+v, %v", i, got, err)
		}
	}
	if _, decs := parked(&codecSchedule{}); decs != 0 {
		t.Errorf("%d decoders parked after bodies with a definition inside the value", decs)
	}
}

func TestValueOffset(t *testing.T) {
	typedef := []byte{3, 0x7f, 0, 0} // 3-byte message, type id -64
	value := []byte{2, 0x80 >> 1, 9} // 2-byte message, type id +32
	cases := []struct {
		name string
		b    []byte
		want int
	}{
		{"empty", nil, -1},
		{"value first", value, 0},
		{"definitions then value", append(append(bytes.Clone(typedef), typedef...), value...), 8},
		{"definitions only", typedef, -1},
		{"two values", append(bytes.Clone(value), value...), -1},
		{"value then definition", append(bytes.Clone(value), typedef...), -1},
		{"empty message", []byte{0}, -1},
		{"length past the end", []byte{5, 2, 0}, -1},
		{"two-byte length", append([]byte{0xfe, 0, 2}, value[1:]...), 0},
		{"length field cut short", []byte{0xfe, 1}, -1},
		{"nine-byte length", []byte{0xf7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 2}, -1},
		{"length over MaxInt64", []byte{0xf8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2}, -1},
		{"length 1<<63", []byte{0xf8, 0x80, 0, 0, 0, 0, 0, 0, 0, 2}, -1},
		{"id cut short by its message", []byte{1, 0xfe, 0, 2}, -1},
	}
	for _, c := range cases {
		if got := valueOffset(c.b); got != c.want {
			t.Errorf("%s: valueOffset(%x) = %d, want %d", c.name, c.b, got, c.want)
		}
	}
}

func TestFreeListsAreBounded(t *testing.T) {
	type onlyHere struct{ A, B string }
	forget(onlyHere{}, &onlyHere{})
	var wg sync.WaitGroup
	for g := 0; g < 4*maxParked; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				b, err := encodeBody(onlyHere{A: fmt.Sprint(g), B: fmt.Sprint(i)})
				if err != nil {
					t.Error(err)
					return
				}
				var got onlyHere
				if err := decodeBody(b, &got); err != nil || got.A != fmt.Sprint(g) || got.B != fmt.Sprint(i) {
					t.Errorf("got %+v, %v", got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	encs, _ := parked(onlyHere{})
	_, decs := parked(&onlyHere{})
	if encs < 1 || encs > maxParked || decs < 1 || decs > maxParked {
		t.Errorf("parked %d encoders and %d decoders, want 1..%d of each", encs, decs, maxParked)
	}

	// More distinct definition prefixes than the list holds: the least
	// recently parked decoders go, the latest stay.
	str := reflect.TypeOf("")
	foreign := func(i int) []byte {
		rt := reflect.StructOf([]reflect.StructField{{Name: "A", Type: str}, {Name: fmt.Sprintf("X%d", i), Type: str}})
		v := reflect.New(rt).Elem()
		v.Field(0).SetString(fmt.Sprint(i))
		v.Field(1).SetString("ignored")
		return freshEncode(t, v.Interface())
	}
	for i := 0; i < 2*maxParked; i++ {
		var got onlyHere
		if err := decodeBody(foreign(i), &got); err != nil || got.A != fmt.Sprint(i) {
			t.Fatalf("foreign body %d: %+v, %v", i, got, err)
		}
	}
	c := codecFor(reflect.TypeOf(&onlyHere{}))
	if len(c.decs) != maxParked {
		t.Fatalf("%d decoders parked, want %d", len(c.decs), maxParked)
	}
	last := foreign(2*maxParked - 1)
	if !bytes.Equal(c.decs[maxParked-1].prefix, last[:valueOffset(last)]) {
		t.Error("the most recently parked decoder is not the last body's")
	}
}

// FuzzDecodeBody holds decodeBody, on types whose entries are warm — one
// gob decodes, one that carries the value hook — to a fresh gob.Decoder's
// verdict on arbitrary bytes, and the prefix walker to its contract on
// the same bytes.
func FuzzDecodeBody(f *testing.F) {
	valid := freshEncode(f, replyOf(2))
	split := valueOffset(valid)
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-5] ^= 0x10
	hooked := freshEncode(f, hookedOf(2))
	hookedSplit := valueOffset(hooked)
	hookedFlipped := bytes.Clone(hooked)
	hookedFlipped[len(hookedFlipped)-5] ^= 0x10
	// The same value message with its first load's name written twice,
	// with a field delta past the last field, and with its count in nine
	// bytes: gob's to decode or refuse, never the hook's.
	_, width := gobUint(hooked[hookedSplit:])
	head, value := hooked[:hookedSplit], hooked[hookedSplit+width:]
	reframed := func(value []byte) []byte {
		return append(AppendGobUint(bytes.Clone(head), uint64(len(value))), value...)
	}
	twice := append(append(bytes.Clone(value[:4]), value[4:14]...), value[4:]...)
	delta6 := append(append(bytes.Clone(value[:4]), 6), value[5:]...)
	wide := append(append(bytes.Clone(value[:3]), 0xf8, 0, 0, 0, 0, 0, 0, 0, 2), value[4:]...)
	for _, seed := range [][]byte{
		valid, freshEncode(f, replyOf(0)), freshEncode(f, replyOf(300)),
		freshEncode(f, codecReplyV2{Extra: "x"}), freshEncode(f, codecSchedule{JobID: "j", CPUs: 1}),
		freshEncode(f, codecIface{V: codecLeaf{N: 1}}),
		valid[:split], valid[split:], valid[:len(valid)-3], flipped,
		append(bytes.Clone(valid), valid[split:]...),
		{}, {0}, {0xf8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 2},
		hooked, freshEncode(f, hookedOf(0)), freshEncode(f, hookedOf(300)),
		hooked[:len(hooked)-3], hookedFlipped, reframed(twice), reframed(delta6), reframed(wide),
		reframed(value[:len(value)-3]), reframed(append(bytes.Clone(value[:3]), 0x7f)),
		bytes.Replace(hooked, []byte("TotalCPUs"), []byte("TotalCPUz"), 1),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		off := valueOffset(data)
		switch {
		case off < -1 || off >= len(data) && off != -1:
			t.Fatalf("valueOffset = %d of %d bytes", off, len(data))
		case off >= 0 && (valueOffset(data[off:]) != 0 || valueOffset(data[:off]) != -1):
			t.Fatalf("split at %d is not where the first value message starts", off)
		}

		decodeValid := func(when string) {
			var got codecReply
			if err := decodeBody(valid, &got); err != nil || !reflect.DeepEqual(got, replyOf(2)) {
				t.Fatalf("valid body %s: %+v, %v", when, got, err)
			}
			var viaHook codecHooked
			reads := hookReads.Load()
			if err := decodeBody(hooked, &viaHook); err != nil || !reflect.DeepEqual(viaHook, hookedOf(2)) || hookReads.Load() == reads {
				t.Fatalf("valid hooked body %s: %+v, %v", when, viaHook, err)
			}
		}
		decodeValid("before")
		var got, want codecReply
		err := decodeBody(data, &got)
		wantErr := freshDecode(data, &want)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decodeBody: %v; fresh decoder: %v", err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeBody: %+v; fresh decoder: %+v", got, want)
		}
		var gotHooked, wantHooked codecHooked
		err = decodeBody(data, &gotHooked)
		wantErr = freshDecode(data, &wantHooked)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("hooked target: decodeBody: %v; fresh decoder: %v", err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(gotHooked, wantHooked) {
			t.Fatalf("hooked target: decodeBody: %+v; fresh decoder: %+v", gotHooked, wantHooked)
		}
		decodeValid("after")
	})
}

// BenchmarkBodyCodec reads the memo's saving without the harness: cold
// forgets the type's entry before every operation, so each one is a
// fresh gob encoder and decoder; warm is the steady state.
func BenchmarkBodyCodec(b *testing.B) {
	payloads := []struct {
		name string
		v    interface{}
		into func() interface{}
	}{
		{"schedule", codecSchedule{JobID: "job-17", Owner: "uc.cs.grads", CPUs: 2, Runtime: time.Hour}, func() interface{} { return new(codecSchedule) }},
		{"reply300", replyOf(300), func() interface{} { return new(codecReply) }},
	}
	for _, p := range payloads {
		for _, warm := range []bool{false, true} {
			name := p.name + "/cold"
			if warm {
				name = p.name + "/warm"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if !warm {
						forget(p.v, p.into())
					}
					body, err := encodeBody(p.v)
					if err != nil {
						b.Fatal(err)
					}
					if err := decodeBody(body, p.into()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

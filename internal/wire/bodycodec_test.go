package wire

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// Fixtures shaped like the decision point's payloads (internal/digruber
// imports this package, so its own types are tested from there —
// TestBodyCodecMatchesFreshGob). They are not protocol structs and reach
// gob only through interface{} parameters.
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
// appended, so its type definitions differ though gob would decode its
// values into a codecReply.
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

// onlyHere is a body type no other test encodes.
type onlyHere struct{ A, B string }

// The package's bodies are numbered as a program's are, at init, the
// echo pair first.
func init() {
	gob.Register(codecLeaf{})
	Register(echoReq{}, echoResp{}, codecSchedule{}, codecReply{}, codecHooked{}, onlyHere{})
}

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

// forget empties the free lists of the values' types, so that a test
// that counts parked codecs starts from none whatever ran before it.
func forget(vs ...interface{}) {
	for _, v := range vs {
		if c := codecFor(reflect.TypeOf(v)); c != nil {
			c.encs.mu.Lock()
			c.encs.items = nil
			c.encs.mu.Unlock()
			c.decs.mu.Lock()
			c.decs.items = nil
			c.decs.mu.Unlock()
		}
	}
}

// freshDecode decodes body into v (a pointer) with a new gob.Decoder —
// the reference DecodeBody is held to.
func freshDecode(body []byte, v interface{}) error {
	return gob.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// inOwnFraming reports whether body is this build's definitions of v's
// type and one value message: the bodies DecodeBody reads, where any
// other is refused.
func inOwnFraming(body []byte, v interface{}) bool {
	c := codecFor(reflect.TypeOf(v))
	msg, ok := bytes.CutPrefix(body, c.prefix)
	return ok && ValueOffset(msg) == 0
}

// parked reports how many encoders and decoders v's type has parked.
func parked(v interface{}) (encs, decs int) {
	c := codecFor(reflect.TypeOf(v))
	if c == nil {
		return 0, 0
	}
	c.encs.mu.Lock()
	defer c.encs.mu.Unlock()
	c.decs.mu.Lock()
	defer c.decs.mu.Unlock()
	return len(c.encs.items), len(c.decs.items)
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
			got, err := AppendBody(nil, v)
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
	if got, err := AppendBody([]byte("kept"), replyOf(1)); err != nil || !bytes.Equal(got, append([]byte("kept"), freshEncode(t, replyOf(1))...)) {
		t.Errorf("AppendBody after other bytes: %v, or not those bytes and a fresh encoder's", err)
	}
	if c := codecFor(reflect.TypeOf(codecIface{})); c != nil {
		t.Error("a type that reaches an interface has a codec")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Register took a type that reaches an interface")
			}
		}()
		Register(codecIface{})
	}()
	if _, err := AppendBody(nil, nil); err == nil {
		t.Error("AppendBody(nil) succeeded")
	}
	if _, err := AppendBody(nil, make(chan int)); err == nil {
		t.Error("AppendBody(chan) succeeded")
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
			if err := DecodeBody(body, &got); err != nil {
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
// that are not this build's definitions and one value message, each of
// which must be refused with ErrForeignBody, and broken bodies that are,
// which a primed decoder must judge as a fresh gob.Decoder does. Each is
// followed by a valid body that must still decode correctly.
func TestForeignAndBrokenBodiesTakeTheFreshPath(t *testing.T) {
	forget(&codecReply{})
	valid := freshEncode(t, replyOf(3))
	split := ValueOffset(valid)
	if split <= 0 || split >= len(valid) {
		t.Fatalf("ValueOffset = %d of %d", split, len(valid))
	}
	checkValid := func(after string) {
		t.Helper()
		var got codecReply
		if err := DecodeBody(valid, &got); err != nil {
			t.Fatalf("valid body after %s: %v", after, err)
		}
		if !reflect.DeepEqual(got, replyOf(3)) {
			t.Fatalf("valid body after %s decoded to %+v", after, got)
		}
		if _, decs := parked(&got); decs != 1 {
			t.Fatalf("after %s %d decoders are parked, want 1", after, decs)
		}
	}
	checkValid("nothing")

	flipped := bytes.Clone(valid)
	flipped[split+3] ^= 0x40
	foreign := map[string][]byte{
		"other definitions": freshEncode(t, codecReplyV2{Loads: replyOf(2).Loads, Note: []byte("n"), Extra: "dropped"}),
		"empty":             nil,
		"prefix only":       valid[:split],
		"value only":        valid[split:],
		"truncated":         valid[:len(valid)-2],
		"other type":        freshEncode(t, codecSchedule{JobID: "x"}),
		"two values":        append(bytes.Clone(valid), valid[split:]...),
	}
	for name, body := range foreign {
		var got codecReply
		if err := DecodeBody(body, &got); !errors.Is(err, ErrForeignBody) {
			t.Errorf("%s: err = %v, want ErrForeignBody", name, err)
		}
		checkValid(name)
	}
	var got, want codecReply
	err, wantErr := DecodeBody(flipped, &got), freshDecode(flipped, &want)
	if (err == nil) != (wantErr == nil) || errors.Is(err, ErrForeignBody) || !reflect.DeepEqual(got, want) {
		t.Errorf("bit flip in the value: %+v, %v; a fresh decoder reads %+v, %v", got, err, want, wantErr)
	}
	checkValid("bit flip")
}

// TestLateDefinitionsAreNeverPrimed decodes a body from a build that
// appended an interface field: gob sends the concrete type's definition
// in the middle of the value, so a decoder that read it once would
// refuse it the second time ("duplicate type received"). It is not this
// build's framing and is refused every time, parking nothing.
func TestLateDefinitionsAreNeverPrimed(t *testing.T) {
	forget(&codecSchedule{})
	body := freshEncode(t, struct {
		JobID string
		X     interface{}
	}{JobID: "job-17", X: codecLeaf{N: 1}})
	for i := 0; i < 3; i++ {
		var got codecSchedule
		if err := DecodeBody(body, &got); !errors.Is(err, ErrForeignBody) || got != (codecSchedule{}) {
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
		if got := ValueOffset(c.b); got != c.want {
			t.Errorf("%s: ValueOffset(%x) = %d, want %d", c.name, c.b, got, c.want)
		}
	}
}

func TestFreeListsAreBounded(t *testing.T) {
	forget(onlyHere{})
	var wg sync.WaitGroup
	for g := 0; g < 4*maxParked; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				b, err := AppendBody(nil, onlyHere{A: fmt.Sprint(g), B: fmt.Sprint(i)})
				if err != nil {
					t.Error(err)
					return
				}
				var got onlyHere
				if err := DecodeBody(b, &got); err != nil || got.A != fmt.Sprint(g) || got.B != fmt.Sprint(i) {
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

	// Bodies under other definitions are refused and park nothing: the
	// list holds decoders primed with the one prefix only.
	str := reflect.TypeOf("")
	for i := 0; i < 2*maxParked; i++ {
		rt := reflect.StructOf([]reflect.StructField{{Name: "A", Type: str}, {Name: fmt.Sprintf("X%d", i), Type: str}})
		v := reflect.New(rt).Elem()
		v.Field(0).SetString(fmt.Sprint(i))
		var got onlyHere
		if err := DecodeBody(freshEncode(t, v.Interface()), &got); !errors.Is(err, ErrForeignBody) {
			t.Fatalf("foreign body %d: %+v, %v", i, got, err)
		}
	}
	if _, after := parked(&onlyHere{}); after != decs {
		t.Errorf("foreign bodies moved the parked decoders from %d to %d", decs, after)
	}
}

// FuzzDecodeBody holds DecodeBody, on registered types whose lists are
// warm — one gob decodes, one that carries the value hook — to its
// contract on arbitrary bytes: under this build's definitions of the
// type it accepts what a fresh gob.Decoder accepts, with the same value,
// and refuses what it refuses; under any other it refuses with
// ErrForeignBody. The prefix walker is held to its contract on the same
// bytes.
func FuzzDecodeBody(f *testing.F) {
	valid := freshEncode(f, replyOf(2))
	split := ValueOffset(valid)
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-5] ^= 0x10
	hooked := freshEncode(f, hookedOf(2))
	hookedSplit := ValueOffset(hooked)
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
		off := ValueOffset(data)
		switch {
		case off < -1 || off >= len(data) && off != -1:
			t.Fatalf("ValueOffset = %d of %d bytes", off, len(data))
		case off >= 0 && (ValueOffset(data[off:]) != 0 || ValueOffset(data[:off]) != -1):
			t.Fatalf("split at %d is not where the first value message starts", off)
		}

		decodeValid := func(when string) {
			var got codecReply
			if err := DecodeBody(valid, &got); err != nil || !reflect.DeepEqual(got, replyOf(2)) {
				t.Fatalf("valid body %s: %+v, %v", when, got, err)
			}
			var viaHook codecHooked
			reads := hookReads.Load()
			if err := DecodeBody(hooked, &viaHook); err != nil || !reflect.DeepEqual(viaHook, hookedOf(2)) || hookReads.Load() == reads {
				t.Fatalf("valid hooked body %s: %+v, %v", when, viaHook, err)
			}
		}
		decodeValid("before")
		var got, want codecReply
		err := DecodeBody(data, &got)
		wantErr := freshDecode(data, &want)
		bodyVerdict(t, "", inOwnFraming(data, &got), err, wantErr, got, want)
		var gotHooked, wantHooked codecHooked
		err = DecodeBody(data, &gotHooked)
		wantErr = freshDecode(data, &wantHooked)
		bodyVerdict(t, "hooked target: ", inOwnFraming(data, &gotHooked), err, wantErr, gotHooked, wantHooked)
		decodeValid("after")
	})
}

// bodyVerdict fails t unless DecodeBody's verdict err and value got are
// what the contract asks: a fresh decoder's wantErr and want for a body in
// this build's framing, ErrForeignBody for any other.
func bodyVerdict[T any](t *testing.T, what string, own bool, err, wantErr error, got, want T) {
	t.Helper()
	switch {
	case !own:
		if !errors.Is(err, ErrForeignBody) {
			t.Fatalf("%sDecodeBody of a body in another framing: %v, want ErrForeignBody", what, err)
		}
	case (err == nil) != (wantErr == nil) || errors.Is(err, ErrForeignBody):
		t.Fatalf("%sDecodeBody: %v; fresh decoder: %v", what, err, wantErr)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("%sDecodeBody: %+v; fresh decoder: %+v", what, got, want)
	}
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
					body, err := AppendBody(nil, p.v)
					if err != nil {
						b.Fatal(err)
					}
					if err := DecodeBody(body, p.into()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

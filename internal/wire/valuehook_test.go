package wire

import (
	"bytes"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// codecHooked is codecReply carrying the value hook: this package's
// stand-in for digruber.QueryReply, whose own differential tests live
// beside it. Its time.Time is a GobEncoder and its Note a byte slice, so
// the fixture also shows what a payload with either has to write.
type codecHooked codecReply

// hookReads counts the values codecHooked.ReadGobValue accepted: the
// tests' proof that a decode took the hook and not gob.
var hookReads atomic.Int64

func hookedOf(n int) codecHooked { return codecHooked(replyOf(n)) }

func (r codecHooked) AppendGobValue(b []byte) []byte {
	at := -1 // the field written last
	if len(r.Loads) > 0 {
		b = AppendGobUint(append(b, byte(0-at)), uint64(len(r.Loads)))
		at = 0
		for _, l := range r.Loads {
			b = l.appendGobValue(b)
		}
	}
	if r.At != (time.Time{}) {
		enc, _ := r.At.GobEncode() // fails on a zone offset no test uses
		b = AppendGobString(append(b, byte(1-at)), string(enc))
		at = 1
	}
	if len(r.Note) > 0 {
		b = AppendGobString(append(b, byte(2-at)), string(r.Note))
	}
	return append(b, 0)
}

func (l codecLoad) appendGobValue(b []byte) []byte {
	at := -1
	if l.Name != "" {
		b = AppendGobString(append(b, byte(0-at)), l.Name)
		at = 0
	}
	for i, v := range []int{l.TotalCPUs, l.EstFreeCPUs} {
		if v != 0 {
			b = AppendGobInt(append(b, byte(1+i-at)), int64(v))
			at = 1 + i
		}
	}
	for i, v := range []float64{l.Headroom, l.TargetGap} {
		if v != 0 {
			b = AppendGobFloat(append(b, byte(3+i-at)), v)
			at = 3 + i
		}
	}
	return append(b, 0)
}

// hookCursor reads a value front to back; after a failed read every
// later one fails too.
type hookCursor struct {
	b   []byte
	bad bool
}

// uint reads a non-zero integer — gob writes no zero field, count or
// length — or, with end set, a field delta, where zero ends the struct.
func (c *hookCursor) uint(end bool) uint64 {
	v, n := ReadGobUint(c.b)
	if n == 0 || v == 0 && !end {
		c.b, c.bad = nil, true
		return 0
	}
	c.b = c.b[n:]
	return v
}

func (c *hookCursor) bytes() []byte {
	n := c.uint(false)
	if n > uint64(len(c.b)) {
		c.b, c.bad = nil, true
		return nil
	}
	s := c.b[:n]
	c.b = c.b[n:]
	return s
}

// field returns the number of the next field present in a struct of max
// fields that was last at field at, or -1 at its end.
func (c *hookCursor) field(at, max int) int {
	delta := c.uint(true)
	if delta == 0 || delta > uint64(max) || at+int(delta) >= max {
		c.bad = c.bad || delta != 0
		return -1
	}
	return at + int(delta)
}

func (r *codecHooked) ReadGobValue(b []byte) bool {
	if r.Loads != nil || !r.At.IsZero() || r.Note != nil {
		return false // gob decodes into what is there
	}
	var v codecHooked
	c := hookCursor{b: b}
	for at := c.field(-1, 3); at >= 0; at = c.field(at, 3) {
		switch at {
		case 0:
			n := c.uint(false)
			for i := uint64(0); i < n && !c.bad; i++ {
				var l codecLoad
				for f := c.field(-1, 5); f >= 0; f = c.field(f, 5) {
					switch f {
					case 0:
						l.Name = string(c.bytes())
					case 1:
						l.TotalCPUs = int(GobInt(c.uint(false)))
					case 2:
						l.EstFreeCPUs = int(GobInt(c.uint(false)))
					case 3:
						l.Headroom = GobFloat(c.uint(false))
					case 4:
						l.TargetGap = GobFloat(c.uint(false))
					}
				}
				v.Loads = append(v.Loads, l)
			}
		case 1:
			if v.At.GobDecode(c.bytes()) != nil {
				return false
			}
		case 2:
			v.Note = bytes.Clone(c.bytes())
		}
	}
	if c.bad || len(c.b) != 0 {
		return false
	}
	*r = v
	hookReads.Add(1)
	return true
}

// The hook's contract, on the fixture: the bytes are a fresh encoder's
// from the first call on, the values a fresh decoder's, and once the
// type is warm neither gob's encoder nor its decoder is what produced
// them.
func TestValueHookWritesAndReadsGobsBytes(t *testing.T) {
	forget(codecHooked{}, &codecHooked{})
	values := []codecHooked{{}, hookedOf(0), hookedOf(1), hookedOf(4), hookedOf(300),
		{Loads: []codecLoad{{}, {TargetGap: -1}, {Name: "only"}}}, {Note: []byte{0}}, {Loads: []codecLoad{}}}
	before := hookReads.Load()
	for call := 1; call <= 100; call++ {
		for _, v := range values {
			body, err := encodeBody(v)
			if err != nil {
				t.Fatal(err)
			}
			if want := freshEncode(t, v); !bytes.Equal(body, want) {
				t.Fatalf("call %d, %d loads:\n got %x\nwant %x", call, len(v.Loads), body, want)
			}
			var got, want codecHooked
			if err := decodeBody(body, &got); err != nil {
				t.Fatal(err)
			}
			if err := freshDecode(body, &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("call %d: got %+v want %+v", call, got, want)
			}
		}
	}
	if n := hookReads.Load() - before; n != int64(100*len(values)) {
		t.Errorf("%d of %d decodes took the hook", n, 100*len(values))
	}
	if _, decs := parked(&codecHooked{}); decs != 0 {
		t.Errorf("%d gob decoders parked for a type whose every body the hook read", decs)
	}

	// A pointer has the hook through its element's method set.
	if body, err := encodeBody(&values[4]); err != nil || !bytes.Equal(body, freshEncode(t, values[4])) {
		t.Errorf("by pointer: %v, or not a fresh encoder's bytes", err)
	}
}

// TestValueHookLeavesTheRestToGob feeds the warm entry bodies the hook
// must not read, or declines: each must decode as a fresh decoder has it,
// every time, and leave this build's bodies decoding through the hook.
func TestValueHookLeavesTheRestToGob(t *testing.T) {
	forget(codecHooked{}, &codecHooked{})
	valid := freshEncode(t, hookedOf(3))
	split := valueOffset(valid)
	_, width := gobUint(valid[split:])
	value := valid[split+width+2:] // the type id of a user type is two bytes
	if !bytes.Equal(value, hookedOf(3).AppendGobValue(nil)) {
		t.Fatalf("test is wrong about where the value starts: % x", valid[split:])
	}
	withValue := func(value []byte) []byte {
		msg := append(bytes.Clone(valid[split+width:split+width+2]), value...)
		return append(AppendGobUint(bytes.Clone(valid[:split]), uint64(len(msg))), msg...)
	}

	// Definitions a decoder matches to codecHooked by field name, in
	// which the field numbers of the value mean something else.
	type renamedLoad struct {
		Name      string
		TotalCPUz int // no such field here: gob skips it
		TargetGap float64
	}
	type renamed struct {
		Note  []byte
		Loads []renamedLoad
	}
	foreign := map[string][]byte{
		"the same fields under another name": freshEncode(t, replyOf(3)),
		"fields renamed and moved": freshEncode(t, renamed{Note: []byte("n"),
			Loads: []renamedLoad{{Name: "a", TotalCPUz: 7, TargetGap: 2}, {Name: "b", TotalCPUz: 9}}}),
		"a field appended": freshEncode(t, codecReplyV2{Loads: replyOf(2).Loads, Extra: "dropped"}),
		// What a process that numbered its types as this one did, from
		// a build that called the field something else, would send: the
		// type id proves nothing without the definitions.
		"this build's type ids over other definitions": bytes.Replace(valid, []byte("TotalCPUs"), []byte("TotalCPUz"), 1),
	}
	if bytes.Equal(foreign["this build's type ids over other definitions"], valid) {
		t.Fatal("the definitions do not name TotalCPUs")
	}
	declined := map[string][]byte{
		"a zero field written out":    withValue([]byte{1, 1, 2, 0, 0, 0}),
		"a count in two bytes":        withValue(append([]byte{1, 0xff, 3}, value[2:]...)),
		"a delta past the last field": withValue([]byte{4, 1, 0}),
		"a field out of order":        withValue([]byte{3, 1, 9, 0xff, 1, 0, 0}),
		"a count of nothing":          withValue([]byte{1, 0, 0}),
		"a byte after the end":        withValue(append(bytes.Clone(value), 0)),
		"a value cut short":           withValue(value[:len(value)-4]),
		"an empty value":              withValue(nil),
	}
	for round := 0; round < 3; round++ {
		for _, bodies := range []map[string][]byte{foreign, declined} {
			for name, body := range bodies {
				before := hookReads.Load()
				var got, want codecHooked
				err, wantErr := decodeBody(body, &got), freshDecode(body, &want)
				if (err == nil) != (wantErr == nil) {
					t.Errorf("round %d, %s: err = %v, a fresh decoder says %v", round, name, err, wantErr)
				} else if err == nil && !reflect.DeepEqual(got, want) {
					t.Errorf("round %d, %s: got %+v, a fresh decoder reads %+v", round, name, got, want)
				}
				if hookReads.Load() != before {
					t.Errorf("round %d, %s: the hook read it", round, name)
				}
				var again codecHooked
				if err := decodeBody(valid, &again); err != nil || !reflect.DeepEqual(again, hookedOf(3)) || hookReads.Load() != before+1 {
					t.Fatalf("round %d, after %s: this build's body decoded to %+v, %v (through the hook: %v)",
						round, name, again, err, hookReads.Load() == before+1)
				}
			}
		}
	}

	// A target that is not empty: gob fills the elements it finds, so
	// the hook leaves it to gob.
	got := codecHooked{Loads: []codecLoad{{Name: "stale", TotalCPUs: 1, TargetGap: 5}, {}, {}, {}}}
	want := codecHooked{Loads: []codecLoad{{Name: "stale", TotalCPUs: 1, TargetGap: 5}, {}, {}, {}}}
	if err := decodeBody(valid, &got); err != nil {
		t.Fatal(err)
	}
	if err := freshDecode(valid, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("into a used target: got %+v, a fresh decoder reads %+v", got, want)
	}
}

func TestValueHookConcurrent(t *testing.T) {
	forget(codecHooked{}, &codecHooked{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				v := hookedOf(g + i%5)
				body, err := encodeBody(v)
				if err != nil || !bytes.Equal(body, freshEncode(t, v)) {
					t.Errorf("goroutine %d, call %d: %v, or not a fresh encoder's bytes", g, i, err)
					return
				}
				var got codecHooked
				if err := decodeBody(body, &got); err != nil || !reflect.DeepEqual(got, v) {
					t.Errorf("goroutine %d, call %d: decoded %+v, %v", g, i, got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestGobPrimitivesMatchGob(t *testing.T) {
	uints := []uint64{0, 1, 0x7f, 0x80, 0xff, 0x100, 0xffff, 0x10000, 1<<32 - 1, 1 << 32, 1<<56 - 1, 1 << 56, 1<<64 - 1}
	for _, u := range uints {
		want := freshEncode(t, u)[3:] // length, type id, the zero delta of a bare value
		got := AppendGobUint(nil, u)
		if !bytes.Equal(got, want) {
			t.Errorf("AppendGobUint(%#x) = % x, gob writes % x", u, got, want)
		}
		for _, tail := range [][]byte{nil, {0xaa}, bytes.Repeat([]byte{0xaa}, 9)} {
			if v, n := ReadGobUint(append(bytes.Clone(got), tail...)); v != u || n != len(got) {
				t.Errorf("ReadGobUint(% x + %d bytes) = %#x, %d", got, len(tail), v, n)
			}
			if v, n := gobUint(append(bytes.Clone(got), tail...)); v != u || n != len(got) {
				t.Errorf("gobUint(% x + %d bytes) = %#x, %d", got, len(tail), v, n)
			}
		}
		if len(got) > 1 {
			if _, n := ReadGobUint(got[:len(got)-1]); n != 0 {
				t.Errorf("ReadGobUint read % x cut short", got)
			}
		}
	}
	for _, b := range [][]byte{nil, {0xff, 0x7f}, {0xfe, 0, 0x80}, {0xf7, 1, 2, 3, 4, 5, 6, 7, 8, 9}, {0x80}} {
		if _, n := ReadGobUint(b); n != 0 {
			t.Errorf("ReadGobUint(% x) has width %d: gob's encoder writes no such integer", b, n)
		}
	}
	for _, i := range []int64{1, -1, 63, 64, -64, -65, 1<<63 - 1, -1 << 63} {
		want := freshEncode(t, i)[3:]
		if got := AppendGobInt(nil, i); !bytes.Equal(got, want) {
			t.Errorf("AppendGobInt(%d) = % x, gob writes % x", i, got, want)
		} else if u, _ := ReadGobUint(got); GobInt(u) != i {
			t.Errorf("GobInt(%#x) = %d, want %d", u, GobInt(u), i)
		}
	}
	for _, f := range []float64{1, -1, 0.5, 100, 1.0 / 3, -1e300, 5e-324} {
		want := freshEncode(t, f)[3:]
		if got := AppendGobFloat(nil, f); !bytes.Equal(got, want) {
			t.Errorf("AppendGobFloat(%g) = % x, gob writes % x", f, got, want)
		} else if u, _ := ReadGobUint(got); GobFloat(u) != f {
			t.Errorf("GobFloat(%#x) = %g, want %g", u, GobFloat(u), f)
		}
	}
	if got, want := AppendGobString(nil, "site-000"), freshEncode(t, "site-000")[3:]; !bytes.Equal(got, want) {
		t.Errorf("AppendGobString = % x, gob writes % x", got, want)
	}
}

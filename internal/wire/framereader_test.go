package wire

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// gobFrames is the reference the frame reader is held to: every frame a
// gob.Decoder behind frameCap reads from r, and the error that ended it.
// A decode error inside one message does not end a gob stream, so the
// frames after it are part of the reference; they are given up after a
// few errors in a row.
func gobFrames(r io.Reader) (frames []frame, errs []int) {
	dec := gob.NewDecoder(&frameCap{r: r})
	return readFrames(func() (frame, error) {
		var f frame
		err := dec.Decode(&f)
		return f, err
	})
}

// readerFrames is gobFrames through a frameReader, which it also returns.
func readerFrames(r io.Reader) (frames []frame, errs []int, fr *frameReader) {
	fr = newFrameReader(r, new(SliceList[byte]))
	frames, errs = readFrames(fr.next)
	return frames, errs, fr
}

// readFrames calls next until the stream ends and returns the frames
// that decoded and the positions, counting frames and errors alike, at
// which an error came instead.
func readFrames(next func() (frame, error)) (frames []frame, errs []int) {
	for at, run := 0, 0; run < 4; at++ {
		f, err := next()
		if err == nil {
			frames, run = append(frames, f), 0
			continue
		}
		errs, run = append(errs, at), run+1
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, ErrFrameTooLarge) {
			break
		}
	}
	return frames, errs
}

// sameAsGob reads stream both ways and fails the test unless the frame
// reader saw exactly what gob saw; it returns the reader and the frames.
func sameAsGob(t testing.TB, name string, stream []byte, wrap func(io.Reader) io.Reader) (*frameReader, []frame) {
	t.Helper()
	want, wantErrs := gobFrames(wrap(bytes.NewReader(stream)))
	got, gotErrs, fr := readerFrames(wrap(bytes.NewReader(stream)))
	if !reflect.DeepEqual(gotErrs, wantErrs) {
		t.Fatalf("%s: errors at %v, gob has them at %v (%d frames, gob %d)", name, gotErrs, wantErrs, len(got), len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames, gob reads %d", name, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: frame %d is %s, gob reads %s", name, i, describe(got[i]), describe(want[i]))
		}
	}
	return fr, got
}

func describe(f frame) string {
	return fmt.Sprintf("{ID:%d Kind:%d Method:%.20q Body:%d bytes (nil: %v) Err:%.20q Trace:%d Span:%d Deadline:%d}",
		f.ID, f.Kind, f.Method, len(f.Body), f.Body == nil, f.Err, f.Trace, f.Span, f.Deadline)
}

// edgeFrames is every field of a frame independently at zero, at its
// largest, and empty, short and long where it has a length — Body up to
// bigBody bytes — then everything at once.
func edgeFrames(bigBody int) []frame {
	body := func(n int) []byte { return bytes.Repeat([]byte{0xfc, 0x40, 0, 1}, n/4+1)[:n] }
	all := frame{ID: math.MaxUint64, Kind: 255, Method: strings.Repeat("m", 300), Body: body(300),
		Err: "wire: server overloaded", Trace: math.MaxUint64, Span: 1, Deadline: math.MinInt64}
	fs := []frame{
		{}, all,
		{ID: 1}, {ID: 127}, {ID: 128}, {ID: math.MaxUint64},
		{Kind: frameRequest}, {Kind: frameResponse}, {Kind: 255},
		{Method: "m"}, {Method: methodLike}, {Method: strings.Repeat("µ", 150)},
		{Body: []byte{}}, {Body: []byte{0}}, {Body: body(300)}, {Body: body(11 << 10)}, {Body: body(bigBody)},
		{Err: "e"}, {Err: strings.Repeat("e", 300)},
		{Trace: 1}, {Trace: math.MaxUint64}, {Span: 1 << 40}, {Trace: 7, Span: 9},
		{Deadline: 1}, {Deadline: -1}, {Deadline: math.MaxInt64}, {Deadline: math.MinInt64},
		{ID: 9, Kind: frameRequest, Method: methodLike, Body: body(90), Trace: 3, Span: 4, Deadline: 1131753600e9},
		{ID: 9, Kind: frameResponse, Body: body(11 << 10)},
		{ID: 10, Kind: frameResponse, Err: ErrExpired.Error()},
	}
	return fs
}

// methodLike is a method name of the length the decision point registers.
const methodLike = "DIGRUBER.QuerySiteLoads"

// frameStream is what one gob.Encoder writes for fs.
func frameStream(t testing.TB, fs ...frame) []byte {
	t.Helper()
	var stream bytes.Buffer
	enc := gob.NewEncoder(&stream)
	for _, f := range fs {
		if err := enc.Encode(f); err != nil {
			t.Fatal(err)
		}
	}
	return stream.Bytes()
}

// TestFrameReaderMatchesGob reads streams from this process's encoder —
// each edge frame first, second and thousandth on its connection —
// whole, a byte per Read, and with the data's last Read carrying the
// EOF: the frames are gob's, and gob never had to be asked.
func TestFrameReaderMatchesGob(t *testing.T) {
	edges := edgeFrames(1 << 20)
	filler := edgeFrames(300)
	readers := map[string]func(io.Reader) io.Reader{
		"whole":    func(r io.Reader) io.Reader { return r },
		"one byte": iotest.OneByteReader,
		"data+EOF": iotest.DataErrReader,
	}
	for _, at := range []int{1, 2, 1000} {
		var lead []frame
		for i := 0; i < at-1; i++ {
			lead = append(lead, filler[i%len(filler)])
		}
		for i, f := range edges {
			if at == 1000 && i%4 != 0 && testing.Short() {
				continue
			}
			stream := frameStream(t, append(lead[:len(lead):len(lead)], f, f)...)
			for name, wrap := range readers {
				if name != "whole" && at == 1000 && i > 2 {
					continue // a byte at a time, the long lead is read thrice over already
				}
				fr, got := sameAsGob(t, name, stream, wrap)
				if fr.dec != nil {
					t.Fatalf("%s: edge frame %d as frame %d sent the stream to gob", name, i, at)
				}
				if len(got) != at+1 {
					t.Fatalf("%s: edge frame %d as frame %d: %d frames read", name, i, at, len(got))
				}
			}
		}
	}
}

// TestFrameReaderSplitReads cuts a two-frame stream in two Reads at
// every offset: inside the definitions, a length, a field, a body.
func TestFrameReaderSplitReads(t *testing.T) {
	edges := edgeFrames(300)
	for i, f := range edges {
		stream := frameStream(t, f, edges[(i+1)%len(edges)])
		for cut := 0; cut <= len(stream); cut++ {
			fr, got := sameAsGob(t, "split", stream, func(io.Reader) io.Reader {
				return io.MultiReader(bytes.NewReader(stream[:cut]), bytes.NewReader(stream[cut:]))
			})
			if fr.dec != nil || len(got) != 2 {
				t.Fatalf("frames %d and %d cut at %d: %d frames, gob asked: %v", i, i+1, cut, len(got), fr.dec != nil)
			}
		}
	}
}

// Lookalikes of frame as other builds or other programs would define it.
// Their streams come from a real gob.Encoder and reach it as interface
// values; none is registered.
type (
	frameRenamed struct {
		ID       uint64
		Sort     byte
		Method   string
		Body     []byte
		Err      string
		Trace    uint64
		Span     uint64
		Deadline int64
	}
	frameAppended struct {
		ID       uint64
		Kind     byte
		Method   string
		Body     []byte
		Err      string
		Trace    uint64
		Span     uint64
		Deadline int64
		Code     int
	}
	frameTwin struct {
		ID       uint64
		Kind     byte
		Method   string
		Body     []byte
		Err      string
		Trace    uint64
		Span     uint64
		Deadline int64
	}
)

// TestFrameReaderLeavesForeignStreamsToGob sends frames under other
// definitions — a field renamed, a field appended, the same fields under
// another type id, an anonymous struct — and a stream that changes
// definitions half way: all of it is gob's to decode, as it always was.
func TestFrameReaderLeavesForeignStreamsToGob(t *testing.T) {
	anon := reflect.New(reflect.StructOf([]reflect.StructField{
		{Name: "ID", Type: reflect.TypeOf(uint64(0))},
		{Name: "Kind", Type: reflect.TypeOf(byte(0))},
		{Name: "Body", Type: reflect.TypeOf([]byte(nil))},
	})).Elem()
	anon.Field(0).SetUint(77)
	anon.Field(1).SetUint(2)
	anon.Field(2).SetBytes([]byte("anonymous"))
	streams := map[string][]interface{}{
		"renamed":  {frameRenamed{ID: 1, Sort: 2, Method: "m", Body: []byte("b")}, frameRenamed{ID: 2, Err: "e"}},
		"appended": {frameAppended{ID: 1, Kind: 2, Body: []byte("b"), Code: 7}, frameAppended{Code: 8}, frameAppended{ID: 3, Deadline: -5}},
		"twin":     {frameTwin{ID: 1, Kind: 1, Method: "m", Body: []byte("b"), Trace: 5, Span: 6, Deadline: 7}, frameTwin{ID: 2}},
		"anon":     {anon.Interface(), anon.Interface()},
		"own, then a twin's": {frame{ID: 1, Kind: 1, Method: "m"}, frame{ID: 2, Body: []byte("b")},
			frameTwin{ID: 3, Kind: 2, Body: []byte("after")}, frame{ID: 4}},
	}
	for name, values := range streams {
		var stream bytes.Buffer
		enc := gob.NewEncoder(&stream)
		for _, v := range values {
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
		}
		for _, wrap := range []func(io.Reader) io.Reader{func(r io.Reader) io.Reader { return r }, iotest.OneByteReader} {
			fr, got := sameAsGob(t, name, stream.Bytes(), wrap)
			if fr.dec == nil {
				t.Errorf("%s: read by hand", name)
			}
			if len(got) != len(values) {
				t.Errorf("%s: %d frames of %d", name, len(got), len(values))
			}
		}
	}
}

// corruptions are value messages a frame's own encoder never writes,
// each as the bytes after the type id: some gob decodes all the same,
// some it refuses.
var corruptions = map[string][]byte{
	"delta 9":                 {9, 1, 0},
	"zero field written":      {1, 0, 1, 2, 0},
	"nine-byte Kind":          {2, 0xf8, 0, 0, 0, 0, 0, 0, 0, 2, 0},
	"Kind 300":                {2, 0xfe, 0x01, 0x2c, 0},
	"string past the message": {3, 200, 'a', 'b', 0},
	"body past the message":   {4, 0xfe, 0xff, 0xff, 'a', 0},
	"trailing byte":           {1, 5, 0, 7},
	"no terminator":           {1, 5},
	"field 8":                 {1, 5, 8, 1, 0},
	"padded delta":            {0xff, 1, 5, 0},
	"padded length":           {1, 5, 2, 0xff, 1, 'm', 0},
	"empty":                   {},
}

// corrupted is defs, good frames, one message made of the frame type id
// and tail under the length header, then more good frames.
func corrupted(t testing.TB, good int, header func(n int) []byte, tail []byte) []byte {
	t.Helper()
	defs, id := ownFrames.defs, ownFrames.id
	var fs []frame
	edges := edgeFrames(300)
	for i := 0; i < good; i++ {
		fs = append(fs, edges[i%len(edges)])
	}
	stream := bytes.Clone(frameStream(t, fs...))
	stream = append(stream, header(len(id)+len(tail))...)
	stream = append(append(stream, id...), tail...)
	return append(stream, frameStream(t, edges[:5]...)[len(defs):]...)
}

func shortHeader(n int) []byte { return AppendGobUint(nil, uint64(n)) }

// TestFrameReaderCorruptedMessage plants each corruption after a hundred
// good frames: the reader yields what gob yields — the same frame, or an
// error in the same place — and reads the frames after it as gob does.
func TestFrameReaderCorruptedMessage(t *testing.T) {
	headers := map[string]func(int) []byte{
		"":                shortHeader,
		", length padded": func(n int) []byte { return []byte{0xfe, 0, byte(n)} },
	}
	for name, tail := range corruptions {
		for suffix, header := range headers {
			stream := corrupted(t, 100, header, tail)
			for _, wrap := range []func(io.Reader) io.Reader{func(r io.Reader) io.Reader { return r }, iotest.OneByteReader} {
				fr, got := sameAsGob(t, name+suffix, stream, wrap)
				if fr.dec == nil {
					t.Errorf("%s%s: read by hand", name, suffix)
				}
				if len(got) < 105 {
					t.Errorf("%s%s: %d frames read around the corruption", name, suffix, len(got))
				}
			}
		}
	}
	// A message that is none of this: definitions again.
	defs := ownFrames.defs
	twice := append(bytes.Clone(frameStream(t, frame{ID: 1})), defs...)
	twice = append(twice, frameStream(t, frame{ID: 2})[len(defs):]...)
	sameAsGob(t, "definitions twice", twice, func(r io.Reader) io.Reader { return r })
}

// starved calls whenDry each time the reader under it has nothing left.
type starved struct {
	r       io.Reader
	whenDry func()
}

func (s *starved) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if n == 0 && err == io.EOF {
		s.whenDry()
	}
	return n, err
}

// TestFrameReaderKeepsASmallBufferOnly reads 11 KB frames into one
// message buffer, and a 1 MiB frame into one it has let go of by the
// time it waits for the next message: an idle connection holds at most
// maxRetained.
func TestFrameReaderKeepsASmallBufferOnly(t *testing.T) {
	small, big := make([]byte, 11<<10), make([]byte, 1<<20)
	stream := frameStream(t, frame{ID: 1, Body: small}, frame{ID: 2, Body: small}, frame{ID: 3, Body: big})
	var fr *frameReader
	waited := false
	fr = newFrameReader(&starved{r: bytes.NewReader(stream), whenDry: func() {
		waited = true
		if cap(fr.msg) > maxRetained {
			t.Errorf("waiting for the next message with %d bytes of message buffer", cap(fr.msg))
		}
	}}, new(SliceList[byte]))
	var kept *byte
	for id := uint64(1); id <= 3; id++ {
		f, err := fr.next()
		if err != nil || f.ID != id {
			t.Fatalf("frame %d: ID %d, %v", id, f.ID, err)
		}
		switch id {
		case 1:
			kept = &fr.msg[0]
		case 2:
			if &fr.msg[0] != kept {
				t.Error("the second 11 KB message was read into a new buffer")
			}
		case 3:
			if cap(fr.msg) < len(big) {
				t.Fatalf("a 1 MiB frame in %d bytes of buffer", cap(fr.msg))
			}
		}
	}
	if _, err := fr.next(); err != io.EOF || !waited {
		t.Errorf("after the last frame: %v (waited: %v)", err, waited)
	}
}

// FuzzFrameReader feeds arbitrary bytes — alone, and after the
// definitions a real stream opens with — to the frame reader and to gob
// behind frameCap: the same frames, errors in the same places, no panic,
// and no more memory than a message may take however much is announced.
func FuzzFrameReader(f *testing.F) {
	defs, id := ownFrames.defs, ownFrames.id
	for _, fr := range edgeFrames(300) {
		f.Add(frameStream(f, fr)[len(defs):], true)
	}
	f.Add(frameStream(f, edgeFrames(300)...), false)
	for _, tail := range corruptions {
		msg := append(bytes.Clone(id), tail...)
		f.Add(append(shortHeader(len(msg)), msg...), true)
		f.Add(append([]byte{0xfe, 0, byte(len(msg))}, msg...), true)
	}
	f.Add(defs, true)
	f.Add(defs[:len(defs)/2], false)
	f.Add(append(bytes.Clone(gibWide), 1, 2, 3), true)
	f.Add(append(bytes.Clone(gibShort), 1, 2, 3), false)
	f.Add(append(AppendGobUint(nil, maxFrameBytes), id...), true)
	f.Add([]byte{0xf7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1}, true)
	var twin bytes.Buffer
	if err := gob.NewEncoder(&twin).Encode(interface{}(frameTwin{ID: 1, Body: []byte("b")})); err != nil {
		f.Fatal(err)
	}
	f.Add(twin.Bytes(), false)
	f.Add(twin.Bytes(), true)

	f.Fuzz(func(t *testing.T, data []byte, afterDefs bool) {
		stream := data
		if afterDefs {
			stream = append(bytes.Clone(defs), data...)
		}
		sameAsGob(t, "fuzz", stream, func(r io.Reader) io.Reader { return r })
		allocated := allocatedBy(func() { readerFrames(bytes.NewReader(stream)) })
		// By hand a message buffer runs readChunk ahead of the bytes that
		// came; gob, once asked, takes a claim below 10 MB at its word.
		if limit := uint64(10<<20 + 2*readChunk + 64*len(stream)); allocated > limit {
			t.Errorf("%d bytes of input cost %d bytes of allocation", len(stream), allocated)
		}
	})
}

package wire

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"digruber/internal/vtime"
)

// ownPrefix is the reference the frame reader is held to: the frames a
// gob.Decoder reads from stream before its first error, cut to the
// longest run that this build's encoder writes as a prefix of stream,
// and whether that prefix is the whole stream. gob stays the judge of
// what a canonical stream says; canonical is what the encoder writes.
func ownPrefix(t testing.TB, stream []byte) (frames []frame, whole bool) {
	t.Helper()
	dec := gob.NewDecoder(bytes.NewReader(stream))
	var again bytes.Buffer
	enc := gob.NewEncoder(&again)
	for {
		var f frame
		if dec.Decode(&f) != nil {
			break
		}
		if err := enc.Encode(f); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(stream, again.Bytes()) {
			break
		}
		frames = append(frames, f)
		if again.Len() == len(stream) {
			return frames, true
		}
	}
	return frames, false
}

// readerFrames reads r through a frameReader until it fails, and returns
// the frames and the error.
func readerFrames(r io.Reader) ([]frame, error) { return readerFramesN(r, -1) }

// readerFramesN is readerFrames stopping after n frames (n < 0: never).
func readerFramesN(r io.Reader, n int) ([]frame, error) {
	fr := newFrameReader(r, new(SliceList[byte]))
	var frames []frame
	for len(frames) != n {
		f, err := fr.next()
		if err != nil {
			return frames, err
		}
		frames = append(frames, f)
	}
	return frames, nil
}

// checkReader reads stream through the frame reader and fails the test
// unless it yields exactly ownPrefix's frames, then io.EOF if they are
// the whole stream and otherwise one of the errors that end a stream
// which is not, or not yet, this build's; it returns the frames and the
// error.
func checkReader(t testing.TB, name string, stream []byte, wrap func(io.Reader) io.Reader) ([]frame, error) {
	t.Helper()
	want, whole := ownPrefix(t, stream)
	got, err := readerFrames(wrap(bytes.NewReader(stream)))
	if len(got) != len(want) {
		t.Fatalf("%s: %d frames then %v; this build's encoder writes %d of them", name, len(got), err, len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%s: frame %d is %s, gob reads %s", name, i, describe(got[i]), describe(want[i]))
		}
	}
	switch {
	case whole && err != io.EOF:
		t.Fatalf("%s: a whole stream of this build's frames ended in %v", name, err)
	case !whole && err != io.EOF && err != io.ErrUnexpectedEOF && !errors.Is(err, ErrForeignBody) && !errors.Is(err, ErrFrameTooLarge):
		t.Fatalf("%s: ended in %v", name, err)
	}
	return got, err
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

// wholeReads leaves a reader's Reads as they are.
var wholeReads = func(r io.Reader) io.Reader { return r }

// TestFrameReaderMatchesGob reads streams from this process's encoder —
// each edge frame first, second and thousandth on its connection —
// whole, a byte per Read, and with the data's last Read carrying the
// EOF: every frame is gob's, and the stream ends in io.EOF.
func TestFrameReaderMatchesGob(t *testing.T) {
	edges := edgeFrames(1 << 20)
	filler := edgeFrames(300)
	readers := map[string]func(io.Reader) io.Reader{
		"whole":    wholeReads,
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
				if got, err := checkReader(t, name, stream, wrap); len(got) != at+1 || err != io.EOF {
					t.Fatalf("%s: edge frame %d as frame %d: %d frames read, then %v", name, i, at, len(got), err)
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
			got, err := checkReader(t, "split", stream, func(io.Reader) io.Reader {
				return io.MultiReader(bytes.NewReader(stream[:cut]), bytes.NewReader(stream[cut:]))
			})
			if len(got) != 2 || err != io.EOF {
				t.Fatalf("frames %d and %d cut at %d: %d frames, then %v", i, i+1, cut, len(got), err)
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

// TestFrameReaderRefusesForeignStreams sends frames under other
// definitions — a field renamed, a field appended, the same fields under
// another type id, an anonymous struct — and a stream that changes
// definitions half way: the frames before the first foreign byte are
// read, and then the stream fails with ErrForeignBody, although gob
// would decode every one of them.
func TestFrameReaderRefusesForeignStreams(t *testing.T) {
	anon := reflect.New(reflect.StructOf([]reflect.StructField{
		{Name: "ID", Type: reflect.TypeOf(uint64(0))},
		{Name: "Kind", Type: reflect.TypeOf(byte(0))},
		{Name: "Body", Type: reflect.TypeOf([]byte(nil))},
	})).Elem()
	anon.Field(0).SetUint(77)
	anon.Field(1).SetUint(2)
	anon.Field(2).SetBytes([]byte("anonymous"))
	streams := map[string]struct {
		values []interface{}
		own    int // frames in this build's definitions before the first foreign byte
	}{
		"renamed":  {[]interface{}{frameRenamed{ID: 1, Sort: 2, Method: "m", Body: []byte("b")}, frameRenamed{ID: 2, Err: "e"}}, 0},
		"appended": {[]interface{}{frameAppended{ID: 1, Kind: 2, Body: []byte("b"), Code: 7}, frameAppended{Code: 8}, frameAppended{ID: 3, Deadline: -5}}, 0},
		"twin":     {[]interface{}{frameTwin{ID: 1, Kind: 1, Method: "m", Body: []byte("b"), Trace: 5, Span: 6, Deadline: 7}, frameTwin{ID: 2}}, 0},
		"anon":     {[]interface{}{anon.Interface(), anon.Interface()}, 0},
		"own, then a twin's": {[]interface{}{frame{ID: 1, Kind: 1, Method: "m"}, frame{ID: 2, Body: []byte("b")},
			frameTwin{ID: 3, Kind: 2, Body: []byte("after")}, frame{ID: 4}}, 2},
	}
	for name, s := range streams {
		var stream bytes.Buffer
		enc, dec := gob.NewEncoder(&stream), gob.NewDecoder(&stream)
		for _, v := range s.values {
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
		}
		sent := bytes.Clone(stream.Bytes())
		for range s.values {
			var f frame
			if err := dec.Decode(&f); err != nil {
				t.Fatalf("%s: gob cannot read the stream: %v", name, err)
			}
		}
		for _, wrap := range []func(io.Reader) io.Reader{wholeReads, iotest.OneByteReader} {
			if got, err := checkReader(t, name, sent, wrap); len(got) != s.own || !errors.Is(err, ErrForeignBody) {
				t.Errorf("%s: %d frames then %v; want %d, then ErrForeignBody", name, len(got), err, s.own)
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
	defs, id := ownFrames()
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
// good frames: the reader yields the hundred and fails the stream with
// ErrForeignBody at the corruption, whether gob would have read it or
// not, and reads nothing after it.
func TestFrameReaderCorruptedMessage(t *testing.T) {
	headers := map[string]func(int) []byte{
		"":                shortHeader,
		", length padded": func(n int) []byte { return []byte{0xfe, 0, byte(n)} },
	}
	for name, tail := range corruptions {
		for suffix, header := range headers {
			stream := corrupted(t, 100, header, tail)
			for _, wrap := range []func(io.Reader) io.Reader{wholeReads, iotest.OneByteReader} {
				if got, err := checkReader(t, name+suffix, stream, wrap); len(got) != 100 || !errors.Is(err, ErrForeignBody) {
					t.Errorf("%s%s: %d frames then %v; want 100, then ErrForeignBody", name, suffix, len(got), err)
				}
			}
		}
	}
	// A message that is none of this: definitions again.
	defs, _ := ownFrames()
	twice := append(bytes.Clone(frameStream(t, frame{ID: 1})), defs...)
	twice = append(twice, frameStream(t, frame{ID: 2})[len(defs):]...)
	if got, err := checkReader(t, "definitions twice", twice, wholeReads); len(got) != 1 || !errors.Is(err, ErrForeignBody) {
		t.Errorf("definitions twice: %d frames then %v; want 1, then ErrForeignBody", len(got), err)
	}
}

// gib is a message length of 1 GiB as a peer may announce it: in the
// four bytes it needs, and padded to gob's widest nine-byte form.
var (
	gibShort = []byte{0xfc, 0x40, 0, 0, 0}
	gibWide  = []byte{0xf8, 0, 0, 0, 0, 0x40, 0, 0, 0}
)

// tripwire is the part of a connection no reader may touch: the bytes
// after a length that must fail the stream.
type tripwire struct{ t testing.TB }

func (w tripwire) Read([]byte) (int, error) {
	w.t.Error("read past a length that fails the stream")
	return 0, io.EOF
}

// TestFrameReaderRefusesAtTheLength ends a stream of real frames —
// bodies from nothing to more than one Read's worth, lengths of one, two
// and three bytes — with a length that fails it, read whole, halved, a
// byte at a time: a length above maxFrameBytes fails with ErrFrameTooLarge, a padded one
// and a count byte above 8 with ErrForeignBody, each before any byte of
// the message it announces is read.
func TestFrameReaderRefusesAtTheLength(t *testing.T) {
	var sent []frame
	for i, n := range []int{0, 1, 90, 200, 11 << 10, 70 << 10, 300 << 10, 3} {
		sent = append(sent, frame{ID: uint64(i + 1), Kind: frameResponse, Method: "m", Body: bytes.Repeat([]byte{byte(i), 0xfc, 0x40}, n/3)})
	}
	stream := frameStream(t, sent...)
	readers := map[string]func(io.Reader) io.Reader{
		"whole":    wholeReads,
		"halved":   iotest.HalfReader,
		"one byte": iotest.OneByteReader,
	}
	lengths := []struct {
		name string
		b    []byte
		want error
	}{
		{"1 GiB", gibShort, ErrFrameTooLarge},
		{"one past the cap", AppendGobUint(nil, maxFrameBytes+1), ErrFrameTooLarge},
		{"1 GiB padded", gibWide, ErrForeignBody},
		{"a ten-byte count", []byte{0xf7}, ErrForeignBody},
	}
	for name, wrap := range readers {
		for _, l := range lengths {
			src := io.MultiReader(bytes.NewReader(append(bytes.Clone(stream), l.b...)), tripwire{t})
			got, err := readerFrames(wrap(src))
			if len(got) != len(sent) || !errors.Is(err, l.want) {
				t.Errorf("%s, %s: %d frames then %v; want %d, then %v", name, l.name, len(got), err, len(sent), l.want)
			}
		}
	}
	// The longest length that passes is read for what it announces.
	atCap := append(AppendGobUint(nil, maxFrameBytes), 9, 9, 9)
	if got, err := readerFrames(bytes.NewReader(atCap)); len(got) != 0 || err != io.ErrUnexpectedEOF {
		t.Errorf("a length of exactly maxFrameBytes: %d frames then %v, want io.ErrUnexpectedEOF", len(got), err)
	}
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

// allocatedBy returns the bytes the process allocated while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// serveEcho starts a server with an echo handler at addr on a fresh
// in-memory network, and returns the network and what stops the server.
func serveEcho(t *testing.T, addr string) (*Mem, func()) {
	t.Helper()
	mem := NewMem()
	srv := NewServer(addr+"-srv", Instant(), vtime.NewReal())
	Handle(srv, "echo", func(r echoReq) (echoResp, error) { return echoResp(r), nil })
	l, err := mem.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	return mem, func() { srv.Close(); l.Close() }
}

// rawConn dials addr and makes one echo call on it with a gob encoder
// of its own, as this build's client writes frames; it returns the
// connection and the encoder, for the test to go on from there.
func rawConn(t *testing.T, mem *Mem, addr string) (Conn, *gob.Encoder) {
	t.Helper()
	conn, err := Transport(mem).Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	body, err := AppendBody(nil, echoReq{Msg: "warm"})
	if err != nil {
		t.Fatal(err)
	}
	enc := gob.NewEncoder(conn)
	if err := enc.Encode(frame{ID: 1, Kind: frameRequest, Method: "echo", Body: body}); err != nil {
		t.Fatal(err)
	}
	if f, err := readerFramesN(conn, 1); err != nil || f[0].Err != "" {
		t.Fatalf("warm-up call: %+v, %v", f, err)
	}
	return conn, enc
}

// closedBy waits for the server to close conn and fails the test if it
// answers instead or keeps it open.
func closedBy(t *testing.T, what string, conn Conn) {
	t.Helper()
	closed := make(chan error, 1)
	go func() {
		_, err := conn.Read(make([]byte, 1))
		closed <- err
	}()
	select {
	case err := <-closed:
		if err == nil {
			t.Errorf("the server answered %s", what)
		}
	case <-time.After(5 * time.Second):
		t.Errorf("the server kept a connection open after %s", what)
	}
}

// stillServes makes a call through a fresh client on addr.
func stillServes(t *testing.T, mem *Mem, addr, what string) {
	t.Helper()
	cli := NewClient(ClientConfig{Node: "c", ServerNode: addr + "-srv", Addr: addr, Transport: mem, Clock: vtime.NewReal()})
	defer cli.Close()
	if r, err := Call[echoReq, echoResp](cli, "echo", echoReq{Msg: "still here"}, time.Second); err != nil || r.Msg != "still here" {
		t.Errorf("a call after %s: %+v, %v", what, r, err)
	}
}

// TestServerDropsOversizedFrame announces 1 GiB to a server on a warm
// connection: the server must close the connection having allocated next
// to nothing (gob alone takes the first 10 MB of any message up front),
// and go on serving others.
func TestServerDropsOversizedFrame(t *testing.T) {
	for _, header := range [][]byte{gibWide, gibShort} {
		mem, stop := serveEcho(t, "cap")
		t.Cleanup(stop)
		conn, _ := rawConn(t, mem, "cap")
		allocated := allocatedBy(func() {
			if _, err := conn.Write(header); err != nil {
				t.Errorf("writing the header: %v", err)
			}
			closedBy(t, "an oversized frame", conn)
		})
		if allocated > 64<<10 {
			t.Errorf("a %d-byte header announcing 1 GiB cost %d bytes of allocation", len(header), allocated)
		}
		stillServes(t, mem, "cap", "the drop")
		conn.Close()
	}
}

// TestServerDropsForeignStreams opens one connection with another
// build's definitions of frame (frameTwin) and sends one non-canonical
// value message on another after good frames: the server closes each,
// while a connection opened before goes on being served, a fresh one
// works, and no goroutine is left behind. The reader on the server's
// side of each is the one the unit tests above hold to ErrForeignBody.
func TestServerDropsForeignStreams(t *testing.T) {
	baseline := runtime.NumGoroutine()
	func() {
		mem, stop := serveEcho(t, "hostile")
		defer stop()
		bystander := NewClient(ClientConfig{Node: "b", ServerNode: "hostile-srv", Addr: "hostile", Transport: mem, Clock: vtime.NewReal()})
		defer bystander.Close()
		call := func(what string) {
			if r, err := Call[echoReq, echoResp](bystander, "echo", echoReq{Msg: what}, time.Second); err != nil || r.Msg != what {
				t.Errorf("the connection opened before, %s: %+v, %v", what, r, err)
			}
		}
		call("before")

		twin, err := Transport(mem).Dial("hostile")
		if err != nil {
			t.Fatal(err)
		}
		defer twin.Close()
		body, err := AppendBody(nil, echoReq{Msg: "twin"})
		if err != nil {
			t.Fatal(err)
		}
		// The server may close the pipe at the definitions, before the
		// value message is written.
		_ = gob.NewEncoder(twin).Encode(frameTwin{ID: 1, Kind: frameRequest, Method: "echo", Body: body})
		closedBy(t, "a stream in another build's definitions", twin)
		call("after the twin")

		conn, _ := rawConn(t, mem, "hostile")
		defer conn.Close()
		_, id := ownFrames()
		msg := append(bytes.Clone(id), corruptions["zero field written"]...)
		if _, err := conn.Write(append(shortHeader(len(msg)), msg...)); err != nil {
			t.Fatal(err)
		}
		closedBy(t, "a value message this build never writes", conn)
		call("after the corrupt message")
		stillServes(t, mem, "hostile", "both drops")
	}()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines, %d before the test:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
	}
}

// hostileServer answers the first request on addr with reply, written
// raw after the request is read.
func hostileServer(t *testing.T, addr string, reply []byte) *Mem {
	t.Helper()
	mem := NewMem()
	l, err := mem.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := readerFramesN(conn, 1); err == nil {
			conn.Write(reply) // the test fails on the client's side if this does
		}
	}()
	return mem
}

// TestClientDropsOversizedFrame is the same announcement from a server:
// the call in flight fails as a lost connection that names the cause.
func TestClientDropsOversizedFrame(t *testing.T) {
	mem := hostileServer(t, "hostile", gibWide)
	cli := NewClient(ClientConfig{Node: "c", ServerNode: "s", Addr: "hostile", Transport: mem, Clock: vtime.NewReal()})
	defer cli.Close()
	_, err := Call[echoReq, echoResp](cli, "echo", echoReq{Msg: "x"}, 5*time.Second)
	if !errors.Is(err, ErrConnLost) || !strings.Contains(err.Error(), ErrForeignBody.Error()) {
		t.Errorf("call answered by a padded 1 GiB length: %v, want ErrConnLost naming %q", err, ErrForeignBody)
	}
	mem = hostileServer(t, "hostile", gibShort)
	cli2 := NewClient(ClientConfig{Node: "c", ServerNode: "s", Addr: "hostile", Transport: mem, Clock: vtime.NewReal()})
	defer cli2.Close()
	_, err = Call[echoReq, echoResp](cli2, "echo", echoReq{Msg: "x"}, 5*time.Second)
	if !errors.Is(err, ErrConnLost) || !strings.Contains(err.Error(), ErrFrameTooLarge.Error()) {
		t.Errorf("call answered by an oversized frame: %v, want ErrConnLost naming %q", err, ErrFrameTooLarge)
	}
}

// TestClientDropsForeignReply is a reply in another build's definitions
// of frame: the call in flight fails as a lost connection naming
// ErrForeignBody.
func TestClientDropsForeignReply(t *testing.T) {
	var twin bytes.Buffer
	if err := gob.NewEncoder(&twin).Encode(frameTwin{ID: 1, Kind: frameResponse}); err != nil {
		t.Fatal(err)
	}
	mem := hostileServer(t, "twin", twin.Bytes())
	cli := NewClient(ClientConfig{Node: "c", ServerNode: "s", Addr: "twin", Transport: mem, Clock: vtime.NewReal()})
	defer cli.Close()
	_, err := Call[echoReq, echoResp](cli, "echo", echoReq{Msg: "x"}, 5*time.Second)
	if !errors.Is(err, ErrConnLost) || !strings.Contains(err.Error(), ErrForeignBody.Error()) {
		t.Errorf("call answered in another build's definitions: %v, want ErrConnLost naming %q", err, ErrForeignBody)
	}
}

// FuzzFrameReader feeds arbitrary bytes — alone, and after the
// definitions a real stream opens with — to the frame reader: it accepts
// exactly the stream's prefix in this build's framing and yields gob's
// frames for it, fails at the first byte past it, never panics, and
// allocates no more than a message may take however much is announced.
func FuzzFrameReader(f *testing.F) {
	defs, id := ownFrames()
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
		checkReader(t, "fuzz", stream, wholeReads)
		allocated := allocatedBy(func() { readerFrames(bytes.NewReader(stream)) })
		// A message buffer runs readChunk ahead of the bytes that came.
		if limit := uint64(2*readChunk + 64*len(stream) + 64<<10); allocated > limit {
			t.Errorf("%d bytes of input cost %d bytes of allocation", len(stream), allocated)
		}
	})
}

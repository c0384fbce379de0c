package wire

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"digruber/internal/vtime"
)

// gib is a message length of 1 GiB as a peer may announce it: in the
// four bytes it needs, and padded to gob's widest nine-byte form.
var (
	gibShort = []byte{0xfc, 0x40, 0, 0, 0}
	gibWide  = []byte{0xf8, 0, 0, 0, 0, 0x40, 0, 0, 0}
)

// TestFrameCapFollowsGobFraming reads a stream of real frames — bodies
// from nothing to more than one Read's worth, lengths of one, two and
// three bytes — through the cap in whole, halved and single-byte Reads: gob must see the stream unchanged, and an oversized length
// after it must fail the stream there and not before.
func TestFrameCapFollowsGobFraming(t *testing.T) {
	var stream bytes.Buffer
	enc := gob.NewEncoder(&stream)
	var sent []frame
	for i, n := range []int{0, 1, 90, 200, 11 << 10, 70 << 10, 300 << 10, 3} {
		f := frame{ID: uint64(i + 1), Kind: frameResponse, Method: "m", Body: bytes.Repeat([]byte{byte(i), 0xfc, 0x40}, n/3)}
		if err := enc.Encode(f); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, f)
	}
	readers := map[string]func(io.Reader) io.Reader{
		"whole":    func(r io.Reader) io.Reader { return r },
		"halved":   iotest.HalfReader,
		"one byte": iotest.OneByteReader,
		"data+EOF": iotest.DataErrReader,
	}
	for name, wrap := range readers {
		for _, oversized := range [][]byte{gibShort, gibWide, AppendGobUint(nil, maxFrameBytes+1)} {
			src := append(bytes.Clone(stream.Bytes()), oversized...)
			src = append(src, 1, 2, 3) // the message it announces begins
			dec := gob.NewDecoder(&frameCap{r: wrap(bytes.NewReader(src))})
			for i, want := range sent {
				var got frame
				if err := dec.Decode(&got); err != nil {
					t.Fatalf("%s: frame %d: %v", name, i, err)
				}
				if got.Body == nil {
					got.Body = []byte{}
				}
				if want.Body == nil {
					want.Body = []byte{}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: frame %d arrived changed (%d body bytes, sent %d)", name, i, len(got.Body), len(want.Body))
				}
			}
			var f frame
			if err := dec.Decode(&f); !errors.Is(err, ErrFrameTooLarge) {
				t.Errorf("%s: a length of % x after the frames: %v, want ErrFrameTooLarge", name, oversized, err)
			}
		}
	}

	// The largest length that passes, and a count byte that is no length:
	// both are gob's to judge.
	atCap := &frameCap{r: bytes.NewReader(append(AppendGobUint(nil, maxFrameBytes), 9, 9, 9))}
	if b, err := io.ReadAll(atCap); err != nil || len(b) != 8 {
		t.Errorf("a length of exactly maxFrameBytes: read %d bytes, %v", len(b), err)
	}
	notALength := append([]byte{0xf7}, gibWide...)
	if b, err := io.ReadAll(&frameCap{r: iotest.OneByteReader(bytes.NewReader(notALength))}); err != nil || !bytes.Equal(b, notALength) {
		t.Errorf("a ten-byte count: read % x, %v; want it passed through for gob to refuse", b, err)
	}
	var f frame
	if err := gob.NewDecoder(&frameCap{r: bytes.NewReader(notALength)}).Decode(&f); err == nil || errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("a ten-byte count: gob says %v", err)
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

// TestServerDropsOversizedFrame announces 1 GiB to a server on a warm
// connection: the server must close the connection having allocated next
// to nothing (gob alone takes the first 10 MB of any message up front),
// and go on serving others.
func TestServerDropsOversizedFrame(t *testing.T) {
	for _, header := range [][]byte{gibWide, gibShort} {
		mem := NewMem()
		srv := NewServer("cap-srv", Instant(), vtime.NewReal())
		Handle(srv, "echo", func(r echoReq) (echoResp, error) { return echoResp(r), nil })
		l, err := mem.Listen("cap")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(l)
		conn, err := Transport(mem).Dial("cap")
		if err != nil {
			t.Fatal(err)
		}
		body, err := AppendBody(nil, echoReq{Msg: "warm"})
		if err != nil {
			t.Fatal(err)
		}
		enc, dec := gob.NewEncoder(conn), gob.NewDecoder(conn)
		var resp frame
		if err := enc.Encode(frame{ID: 1, Kind: frameRequest, Method: "echo", Body: body}); err != nil {
			t.Fatal(err)
		}
		if err := dec.Decode(&resp); err != nil || resp.Err != "" {
			t.Fatalf("warm-up call: %+v, %v", resp, err)
		}

		closed := make(chan error, 1)
		allocated := allocatedBy(func() {
			if _, err := conn.Write(header); err != nil {
				t.Errorf("writing the header: %v", err)
			}
			go func() {
				_, err := conn.Read(make([]byte, 1))
				closed <- err
			}()
			select {
			case err := <-closed:
				if err == nil {
					t.Error("the server answered an oversized frame")
				}
			case <-time.After(5 * time.Second):
				t.Error("the server kept the connection open")
			}
		})
		if allocated > 64<<10 {
			t.Errorf("a %d-byte header announcing 1 GiB cost %d bytes of allocation", len(header), allocated)
		}

		cli := NewClient(ClientConfig{Node: "c", ServerNode: "cap-srv", Addr: "cap", Transport: mem, Clock: vtime.NewReal()})
		if r, err := Call[echoReq, echoResp](cli, "echo", echoReq{Msg: "still here"}, time.Second); err != nil || r.Msg != "still here" {
			t.Errorf("a call after the drop: %+v, %v", r, err)
		}
		cli.Close()
		conn.Close()
		srv.Close()
		l.Close()
	}
}

// TestClientDropsOversizedFrame is the same announcement from a server:
// the call in flight fails as a lost connection that names the cause.
func TestClientDropsOversizedFrame(t *testing.T) {
	mem := NewMem()
	l, err := mem.Listen("hostile")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		var req frame
		if gob.NewDecoder(conn).Decode(&req) == nil {
			conn.Write(gibWide) // the test fails on the client's side if this does
		}
	}()
	cli := NewClient(ClientConfig{Node: "c", ServerNode: "s", Addr: "hostile", Transport: mem, Clock: vtime.NewReal()})
	defer cli.Close()
	_, err = Call[echoReq, echoResp](cli, "echo", echoReq{Msg: "x"}, 5*time.Second)
	if !errors.Is(err, ErrConnLost) || !strings.Contains(err.Error(), ErrFrameTooLarge.Error()) {
		t.Errorf("call answered by an oversized frame: %v, want ErrConnLost naming %q", err, ErrFrameTooLarge)
	}
}

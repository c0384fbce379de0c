package wire

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"digruber/internal/trace"
	"digruber/internal/vtime"
)

// checkList fails the test if l holds more than maxParked slices, a
// slice above maxRetained, or the same storage twice.
func checkList[T any](t *testing.T, name string, l *SliceList[T]) {
	t.Helper()
	l.l.mu.Lock()
	defer l.l.mu.Unlock()
	if len(l.l.items) > maxParked {
		t.Errorf("%s holds %d slices, bound %d", name, len(l.l.items), maxParked)
	}
	seen := map[*T]bool{}
	for _, b := range l.l.items {
		if cap(b) == 0 || uintptr(cap(b))*unsafe.Sizeof(*new(T)) > maxRetained {
			t.Errorf("%s holds a slice of capacity %d", name, cap(b))
		}
		if seen[unsafe.SliceData(b)] {
			t.Errorf("%s holds the same storage twice", name)
		}
		seen[unsafe.SliceData(b)] = true
	}
}

func TestSliceList(t *testing.T) {
	var l SliceList[uint64]
	if b := l.Take(10); len(b) != 0 || cap(b) != 10 {
		t.Fatalf("an empty list handed out len %d cap %d", len(b), cap(b))
	}
	small, large := make([]uint64, 3, 4), make([]uint64, 5, 100)
	l.Put(large)
	l.Put(small)
	if b := l.Take(50); cap(b) != 50 {
		t.Errorf("asked for 50 with a slice of 4 on top: got cap %d, want a new one of 50", cap(b))
	}
	if b := l.Take(50); len(b) != 0 || cap(b) != 100 || &b[:1][0] != &large[0] {
		t.Errorf("the slice of 100 was not next: len %d cap %d", len(b), cap(b))
	}
	l.Put(nil)
	l.Put(make([]uint64, 0, maxRetained/8+1))
	if b := l.Take(0); cap(b) != 0 {
		t.Errorf("the list kept a slice of capacity %d: nil, or above maxRetained", cap(b))
	}
	for i := 0; i < 3*maxParked; i++ {
		l.Put(make([]uint64, 1, maxRetained/8))
	}
	checkList(t, "an overfed list", &l)
	if !raceEnabled {
		return
	}
	defer func() {
		if recover() == nil {
			t.Error("under the race detector, a slice put twice must panic")
		}
	}()
	l.Take(0) // room for one
	l.Put(large)
	l.Put(large[:2])
}

// TestBodiesHaveOneOwner is the byte side of the ownership rules, on one
// server and one client: the bytes a raw Call returned and the bytes a
// raw handler returned are never recycled — a thousand typed calls later
// they read as they did — while everything a typed call or handler
// touches goes round the two lists; and whatever fails on the way — a
// send into a closed connection, a handler's error, a body that does not
// decode on either side — no list ends up over its bound or with one
// buffer on it twice.
func TestBodiesHaveOneOwner(t *testing.T) {
	srv, cli := newPair(t, Instant(), nil, vtime.NewReal())
	Handle(srv, "echo", func(r echoReq) (echoResp, error) { return echoResp(r), nil })
	Handle(srv, "fail", func(r echoReq) (echoResp, error) { return echoResp{}, errors.New(r.Msg) })
	Handle(srv, "slow", func(r echoReq) (echoResp, error) {
		time.Sleep(20 * time.Millisecond)
		return echoResp(r), nil
	})
	var kept [][]byte // what the raw handler returned, as the server still holds it
	var keptMu sync.Mutex
	srv.RegisterCtx("raw-echo", func(_ Ctx, body []byte) ([]byte, error) {
		keptMu.Lock()
		defer keptMu.Unlock()
		kept = append(kept, body)
		return body, nil
	})

	payload := func(i int) echoReq {
		return echoReq{Msg: fmt.Sprintf("payload %04d %s", i, bytes.Repeat([]byte{'x'}, i%200))}
	}
	body, err := encodeBody(payload(7))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := cli.CallCtx(trace.SpanContext{}, "raw-echo", body, time.Second)
	if err != nil || !bytes.Equal(raw, body) {
		t.Fatalf("raw echo: % x, %v", raw, err)
	}
	rawCopy := bytes.Clone(raw)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < 1000; i += 4 {
				want := payload(i)
				if got, err := Call[echoReq, echoResp](cli, "echo", want, time.Minute); err != nil || got.Msg != want.Msg {
					t.Errorf("typed call %d: %q, %v", i, got.Msg, err)
					return
				}
				switch i % 10 {
				case 1: // the handler fails
					if _, err := Call[echoReq, echoResp](cli, "fail", want, time.Minute); err == nil || err.Error() != want.Msg {
						t.Errorf("failing handler: %v", err)
					}
				case 2: // the request does not decode on the server
					if _, err := cli.CallCtx(trace.SpanContext{}, "echo", []byte("not a gob stream"), time.Minute); err == nil {
						t.Error("the server decoded garbage")
					}
				case 3: // the reply does not decode on the client
					if _, err := Call[echoReq, struct{ Msg int }](cli, "echo", want, time.Minute); err == nil {
						t.Error("the client decoded a string into an int")
					}
				case 4: // the caller has gone when the reply is ready
					if _, err := Call[echoReq, echoResp](cli, "slow", want, time.Millisecond); !errors.Is(err, ErrTimeout) {
						t.Errorf("slow handler: %v", err)
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// A send that fails: the connection closes under a slow handler.
	gone := NewClient(ClientConfig{Node: "gone", ServerNode: "server-node", Addr: "dp-0", Transport: cli.transport, Clock: vtime.NewReal()})
	received := srv.Stats().Received
	go Call[echoReq, echoResp](gone, "slow", payload(1), time.Second)
	for srv.Stats().Received == received {
		time.Sleep(time.Millisecond)
	}
	gone.Close()
	for srv.Stats().ConnLost == 0 {
		time.Sleep(time.Millisecond)
	}

	if !bytes.Equal(raw, rawCopy) {
		t.Error("the bytes a raw Call returned changed under later calls")
	}
	keptMu.Lock()
	if len(kept) != 1 || !bytes.Equal(kept[0], body) {
		t.Error("the bytes a raw handler returned changed under later calls")
	}
	keptMu.Unlock()
	checkList(t, "the server's list", &srv.bodies)
	checkList(t, "the client's list", &cli.bodies)
	if got, err := Call[echoReq, echoResp](cli, "echo", payload(9), time.Second); err != nil || got.Msg != payload(9).Msg {
		t.Errorf("a call after all that: %q, %v", got.Msg, err)
	}
}

// TestLargeBodyIsNotRetained encodes one 4 MiB body: neither the type's
// parked encoders nor anything else in the codec may keep its capacity,
// and the small body after it is still a fresh gob.Encoder's bytes.
func TestLargeBodyIsNotRetained(t *testing.T) {
	type blob struct{ Data []byte }
	forget(blob{})
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	encode := func(n int) {
		v := blob{Data: bytes.Repeat([]byte{7}, n)}
		got, err := encodeBody(v)
		if err != nil {
			t.Fatal(err)
		}
		if want := freshEncode(t, v); !bytes.Equal(got, want) {
			t.Fatalf("a %d-byte body differs from a fresh encoder's", n)
		}
	}
	encode(100)
	encode(100)
	before := heap()
	encode(4 << 20)
	if encs, _ := parked(blob{}); encs != 0 {
		t.Errorf("%d encoders parked after a 4 MiB body", encs)
	}
	if pinned := int64(heap()) - int64(before); pinned > 128<<10 {
		t.Errorf("the codec pins %d bytes after a 4 MiB body", pinned)
	}
	encode(100)
	encode(100)
	if encs, _ := parked(blob{}); encs != 1 {
		t.Errorf("%d encoders parked after small bodies, want 1", encs)
	}
}

// BenchmarkFrameReader reads one frame — a request the size of the
// benchmark's echo, a response carrying a 300-load reply — with gob's
// decoder behind frameCap, as both ends did, and with the frame reader,
// its Body going back on the list as a typed call's does.
func BenchmarkFrameReader(b *testing.B) {
	for _, c := range []struct {
		name string
		f    frame
	}{
		{"echo", frame{ID: 1 << 20, Kind: frameRequest, Method: methodLike, Body: make([]byte, 90)}},
		{"reply300", frame{ID: 1 << 20, Kind: frameResponse, Body: make([]byte, 11<<10)}},
	} {
		name, f := c.name, c.f
		var first, rest bytes.Buffer
		enc := gob.NewEncoder(&first)
		if err := enc.Encode(f); err != nil {
			b.Fatal(err)
		}
		enc = gob.NewEncoder(&rest)
		for i := 0; i < 2; i++ {
			rest.Reset() // keeps the second Encode: the value message alone
			if err := enc.Encode(f); err != nil {
				b.Fatal(err)
			}
		}
		src := &looped{head: first.Bytes(), loop: rest.Bytes()}
		b.Run(name+"/gob", func(b *testing.B) {
			*src = looped{head: src.head, loop: src.loop}
			dec := gob.NewDecoder(&frameCap{r: src})
			b.ReportAllocs()
			b.SetBytes(int64(len(src.loop)))
			for i := 0; i < b.N; i++ {
				var got frame
				if err := dec.Decode(&got); err != nil || len(got.Body) != len(f.Body) {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/reader", func(b *testing.B) {
			*src = looped{head: src.head, loop: src.loop}
			var bodies SliceList[byte]
			fr := newFrameReader(src, &bodies)
			b.ReportAllocs()
			b.SetBytes(int64(len(src.loop)))
			for i := 0; i < b.N; i++ {
				got, err := fr.next()
				if err != nil || len(got.Body) != len(f.Body) {
					b.Fatal(err)
				}
				bodies.Put(got.Body)
			}
			if fr.dec != nil {
				b.Fatal("the stream went to gob")
			}
		})
	}
}

// looped is a connection that says head once and then loop for ever.
type looped struct {
	head, loop []byte
	at         int
}

func (l *looped) Read(p []byte) (int, error) {
	if l.at < len(l.head) {
		n := copy(p, l.head[l.at:])
		l.at += n
		return n, nil
	}
	n := copy(p, l.loop[(l.at-len(l.head))%len(l.loop):])
	l.at += n
	return n, nil
}

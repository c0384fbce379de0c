package main

import (
	"io"
	"testing"
	"time"

	"digruber/internal/digruber"
	"digruber/internal/vtime"
	"digruber/internal/wire"
)

// transports are the two the harness wraps.
func transports(t *testing.T) map[string]func() (wire.Transport, string) {
	t.Helper()
	return map[string]func() (wire.Transport, string){
		"mem": func() (wire.Transport, string) { return wire.NewMem(), "count-test" },
		"tcp": func() (wire.Transport, string) {
			addr, err := freeLoopbackAddr()
			if err != nil {
				t.Fatal(err)
			}
			return wire.TCP{}, addr
		},
	}
}

// A hand-checked message: a 4-byte frame header and a 16-byte body,
// written as two writes, is 20 bytes on the wire at both ends.
func TestCountingNetHandCheckedFrame(t *testing.T) {
	for name, mk := range transports(t) {
		t.Run(name, func(t *testing.T) {
			inner, addr := mk()
			n := newCountingNet(inner)
			link := n.link()
			l, err := n.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			got := make(chan []byte, 1)
			go func() {
				c, err := l.Accept()
				if err != nil {
					got <- nil
					return
				}
				defer c.Close()
				buf := make([]byte, 20)
				if _, err := io.ReadFull(c, buf); err != nil {
					buf = nil
				}
				got <- buf
			}()
			c, err := link.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for _, part := range [][]byte{{0, 0, 0, 16}, []byte("0123456789abcdef")} {
				if _, err := c.Write(part); err != nil {
					t.Fatal(err)
				}
			}
			if buf := <-got; string(buf[4:]) != "0123456789abcdef" {
				t.Fatalf("accepting end read %q", buf)
			}
			if w, r, calls := n.all.written.Load(), n.all.read.Load(), n.all.writes.Load(); w != 20 || r != 20 || calls != 2 {
				t.Errorf("all conns: wrote %d bytes in %d writes, read %d; want 20 in 2, 20", w, calls, r)
			}
			if got := link.bytes(); got != 20 {
				t.Errorf("link counted %d bytes, want 20", got)
			}
		})
	}
}

// Over a real RPC both ends must agree — every byte one end writes the
// other reads — and a repeated echo must cost the same bytes each time,
// at least its two 16-byte bodies.
func TestCountingNetBothEndsAgreeOnEcho(t *testing.T) {
	for name, mk := range transports(t) {
		t.Run(name, func(t *testing.T) {
			inner, addr := mk()
			n := newCountingNet(inner)
			srv := wire.NewServer("echo", wire.Instant(), vtime.NewReal())
			wire.Handle(srv, "echo", func(a digruber.PublishedArgs) (digruber.PublishedArgs, error) { return a, nil })
			l, err := n.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			served := make(chan struct{})
			go func() {
				defer close(served)
				srv.Serve(l)
			}()
			defer func() {
				srv.Close()
				l.Close()
				<-served
			}()
			cl := wire.NewClient(wire.ClientConfig{Node: "c", Addr: l.Addr(), Transport: n, Clock: vtime.NewReal()})
			defer cl.Close()
			echo := func() int64 {
				before := n.wireBytes()
				out, err := wire.Call[digruber.PublishedArgs, digruber.PublishedArgs](cl, "echo",
					digruber.PublishedArgs{Provider: "0123456789abcdef"}, 5*time.Second)
				if err != nil || out.Provider != "0123456789abcdef" {
					t.Fatalf("echo: %v %q", err, out.Provider)
				}
				return n.wireBytes() - before
			}
			echo() // carries the gob type descriptors of the frame envelope
			second, third := echo(), echo()
			if second != third || second < 32 {
				t.Errorf("steady-state echo cost %d then %d bytes; want equal and at least the two 16-byte bodies", second, third)
			}
			if w, r := n.all.written.Load(), n.all.read.Load(); w != r {
				t.Errorf("ends disagree: %d bytes written, %d read", w, r)
			}
		})
	}
}

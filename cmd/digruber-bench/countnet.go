package main

import (
	"sync/atomic"

	"digruber/internal/wire"
)

// netCounters totals what crossed a set of connections. Bytes and
// write calls are counted where Conn.Write returns, on both ends of
// every connection, so the totals include gob type descriptors, frame
// envelopes and length prefixes — everything the PR 8 body-only ledger
// (wire.Server.MethodIO) leaves out.
type netCounters struct {
	written atomic.Int64 // bytes accepted by Conn.Write
	read    atomic.Int64 // bytes returned by Conn.Read
	writes  atomic.Int64 // Conn.Write calls
}

// countingNet wraps a wire.Transport so the harness can see the wire
// from outside: every listener and every dialed connection it hands
// out counts into all; connections dialed through a link view also
// count into that link's own counters, which is how decision-point
// mesh traffic is told apart from client traffic (a dialed connection
// carries both directions, so its written+read is the link's total).
type countingNet struct {
	inner wire.Transport
	all   netCounters
}

func newCountingNet(inner wire.Transport) *countingNet { return &countingNet{inner: inner} }

// Listen implements wire.Transport.
func (n *countingNet) Listen(addr string) (wire.Listener, error) {
	l, err := n.inner.Listen(addr)
	if err != nil {
		return nil, err
	}
	return countingListener{Listener: l, net: n}, nil
}

// Dial implements wire.Transport.
func (n *countingNet) Dial(addr string) (wire.Conn, error) { return n.dial(addr, nil) }

func (n *countingNet) dial(addr string, link *netCounters) (wire.Conn, error) {
	c, err := n.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, all: &n.all, link: link}, nil
}

// link returns a view of the transport whose dialed connections also
// count into their own counters.
func (n *countingNet) link() *linkNet { return &linkNet{net: n} }

// wireBytes is every byte written to every connection, both ends.
func (n *countingNet) wireBytes() int64 { return n.all.written.Load() }

// linkNet is a countingNet view for one class of dialer.
type linkNet struct {
	net *countingNet
	own netCounters
}

// Listen implements wire.Transport.
func (l *linkNet) Listen(addr string) (wire.Listener, error) { return l.net.Listen(addr) }

// Dial implements wire.Transport.
func (l *linkNet) Dial(addr string) (wire.Conn, error) { return l.net.dial(addr, &l.own) }

// bytes is both directions of every connection dialed through the view.
func (l *linkNet) bytes() int64 { return l.own.written.Load() + l.own.read.Load() }

type countingListener struct {
	wire.Listener
	net *countingNet
}

func (l countingListener) Accept() (wire.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, all: &l.net.all}, nil
}

type countingConn struct {
	wire.Conn
	all  *netCounters
	link *netCounters // nil on accepted connections
}

// Write counts p before handing it on, so that no reader can hold
// bytes their writer has not yet counted; a short write is taken back.
func (c *countingConn) Write(p []byte) (int, error) {
	c.countWrite(1, int64(len(p)))
	n, err := c.Conn.Write(p)
	if n < len(p) {
		c.countWrite(0, int64(n-len(p)))
	}
	return n, err
}

func (c *countingConn) countWrite(calls, bytes int64) {
	c.all.writes.Add(calls)
	c.all.written.Add(bytes)
	if c.link != nil {
		c.link.writes.Add(calls)
		c.link.written.Add(bytes)
	}
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.all.read.Add(int64(n))
	if c.link != nil {
		c.link.read.Add(int64(n))
	}
	return n, err
}

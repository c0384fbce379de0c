// Package wire is the reproduction's stand-in for the Globus Toolkit web
// service stacks (GT3 and the GT4 prerelease) that DI-GRUBER was deployed
// on. It provides a small RPC system — length-delimited gob frames over
// either real TCP connections or in-process pipes — plus two pieces of
// deliberate emulation:
//
//   - a netsim-driven WAN delay on every message, standing in for
//     PlanetLab's wide-area links, and
//   - a StackProfile on the server standing in for the toolkit's
//     per-request costs (GSI authentication, SOAP processing, container
//     dispatch) and its limited request-processing concurrency. The paper
//     identifies exactly these as the factors limiting performance.
//
// Everything above this package (GRUBER engines, decision points, DiPerF
// testers) talks through Client.Call / Server handlers and never sees the
// emulation.
package wire

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"sync"
)

// Errors surfaced by calls. The three failure sentinels distinguish what
// a caller can infer about the far end — the raw material for failover
// and retry decisions above this package:
//
//   - ErrRefused: the dial itself failed. Nothing is listening; retrying
//     immediately is cheap and a different replica is likely needed.
//   - ErrConnLost: an established connection died mid-call. The request
//     may or may not have executed; idempotent calls can retry.
//   - ErrTimeout: silence until the deadline. The server may be dead,
//     the link may be cut, or the answer is merely late — the most
//     expensive failure to observe and the least informative.
var (
	// ErrTimeout reports that the per-call deadline expired before a
	// response arrived. DI-GRUBER clients react by falling back to random
	// site selection.
	ErrTimeout = errors.New("wire: call timed out")
	// ErrOverloaded reports that the server shed the request because its
	// accept queue was full.
	ErrOverloaded = errors.New("wire: server overloaded")
	// ErrClosed reports use of a closed client or server.
	ErrClosed = errors.New("wire: closed")
	// ErrRefused reports that dialing the server address failed outright.
	ErrRefused = errors.New("wire: connection refused")
	// ErrConnLost reports that the connection died while calls were in
	// flight.
	ErrConnLost = errors.New("wire: connection lost")
	// ErrExpired reports that the server dropped the request at dequeue
	// because the caller's propagated deadline had already passed — the
	// caller has (or is about to) time out, so processing would only burn
	// a container worker on an answer nobody is waiting for.
	ErrExpired = errors.New("wire: request expired")
	// ErrDraining reports that the far end is a decision point in its
	// Draining lifecycle state: it refused the request without processing
	// it because it is retiring from the fleet. The refusal is safe to
	// retry — nothing executed — but pointless against the same address
	// (the drain only ends in a stop), so the RetryPolicy never retries
	// it; the failover layer above re-runs the interaction against a
	// different decision point instead.
	ErrDraining = errors.New("wire: decision point draining")
)

// FailureClass partitions call errors for failover and retry logic.
type FailureClass int

// Failure classes, from Classify.
const (
	// FailureNone is a nil error.
	FailureNone FailureClass = iota
	// FailureTimeout is silence until the caller's deadline (ErrTimeout).
	FailureTimeout
	// FailureLost is a connection severed mid-call (ErrConnLost).
	FailureLost
	// FailureRefused is a failed dial (ErrRefused).
	FailureRefused
	// FailureOverload is a shed request (ErrOverloaded).
	FailureOverload
	// FailureClosed is use of a closed client (ErrClosed).
	FailureClosed
	// FailureOther is an application-level error from the handler.
	FailureOther
	// FailureExpired is a request the server dropped unprocessed because
	// its propagated deadline had passed (ErrExpired). The caller's own
	// timeout owns what happens next, so — like FailureTimeout — it is
	// never retried.
	FailureExpired
	// FailureDraining is a request a retiring decision point refused
	// unprocessed (ErrDraining). Safe to re-issue, but only somewhere
	// else: the same address will keep refusing until it stops, so the
	// wire retry loop skips it and failover handles the re-issue.
	FailureDraining
)

// String names the class.
func (c FailureClass) String() string {
	switch c {
	case FailureNone:
		return "none"
	case FailureTimeout:
		return "timeout"
	case FailureLost:
		return "lost"
	case FailureRefused:
		return "refused"
	case FailureOverload:
		return "overload"
	case FailureClosed:
		return "closed"
	case FailureExpired:
		return "expired"
	case FailureDraining:
		return "draining"
	default:
		return "other"
	}
}

// Classify maps a Call error to its failure class.
func Classify(err error) FailureClass {
	switch {
	case err == nil:
		return FailureNone
	case errors.Is(err, ErrTimeout):
		return FailureTimeout
	case errors.Is(err, ErrConnLost):
		return FailureLost
	case errors.Is(err, ErrRefused):
		return FailureRefused
	case errors.Is(err, ErrOverloaded):
		return FailureOverload
	case errors.Is(err, ErrClosed):
		return FailureClosed
	case errors.Is(err, ErrExpired):
		return FailureExpired
	case errors.Is(err, ErrDraining):
		return FailureDraining
	default:
		return FailureOther
	}
}

// frame is the single on-the-wire message type; Kind discriminates
// requests from responses.
//
// Trace and Span carry the caller's tracing context so server-side
// spans (queueing, handler, stack emulation) attach to the client's
// trace — the envelope is how context crosses the emulated WAN. Both
// are zero for untraced calls, and gob omits zero-valued fields, so an
// untraced frame is byte-identical to one from before tracing existed.
//
// Deadline is the caller's absolute per-call deadline in UnixNano
// (virtual time), stamped when ClientConfig.PropagateDeadline is set;
// the server drops requests whose deadline has passed at dequeue
// instead of processing them (ErrExpired). Zero means "no deadline",
// and — like Trace/Span — the zero value is elided by gob, so frames
// without one stay byte-identical to pre-deadline builds (asserted by
// TestFrameDeadlineWireCompat). New fields must be appended after
// Deadline: gob delta-encodes field indices, so inserting earlier would
// renumber the rest and break that identity.
type frame struct {
	ID       uint64
	Kind     byte // frameRequest or frameResponse
	Method   string
	Body     []byte
	Err      string
	Trace    uint64
	Span     uint64
	Deadline int64
}

const (
	frameRequest byte = iota + 1
	frameResponse
)

// bodyCodec is the memo behind encodeBody and decodeBody for one Go
// type. A fresh gob.Encoder opens its stream with the type-definition
// messages of everything the value can reach and a fresh gob.Decoder
// compiles a decode engine from them — ~350 allocations around a
// 100-byte body. Both are functions of the type alone, so the first use
// pays for them and parks the primed encoder or decoder; later uses
// encode or decode the value message only. The bytes stay those of a
// fresh encoder (DESIGN.md "Wire body codec" says why they must).
type bodyCodec struct {
	mu sync.Mutex
	// prefix is the type-definition messages a fresh encoder of the type
	// emits before the value message; the first encode records it.
	prefix []byte
	encs   []*bodyEncoder
	decs   []*bodyDecoder // least recently parked first
}

// maxParked bounds each free list. A list only grows to the number of
// goroutines that were inside the codec at once, so the bound caps what
// hostile bodies (one decoder per distinct prefix) can make it hold.
const maxParked = 16

// bodyEncoder is an encoder that has already sent its type definitions
// into buf.
type bodyEncoder struct {
	enc *gob.Encoder
	buf bytes.Buffer
}

// bodyDecoder is a decoder that has consumed exactly prefix from r.
type bodyDecoder struct {
	dec    *gob.Decoder
	r      bytes.Reader
	prefix []byte
}

// bodyCodecs maps a reflect.Type to its *bodyCodec; the nil *bodyCodec
// marks a type that bypasses the memo.
var bodyCodecs sync.Map

// codecFor returns the memo for rt, or nil when rt bypasses it: gob
// sends the definition of an interface's concrete type with the value
// that first carries it, so a primed encoder would leave out what a
// fresh one sends.
func codecFor(rt reflect.Type) *bodyCodec {
	if rt == nil {
		return nil
	}
	if c, ok := bodyCodecs.Load(rt); ok {
		return c.(*bodyCodec)
	}
	var c *bodyCodec
	if !reachesInterface(rt, map[reflect.Type]bool{}) {
		c = &bodyCodec{}
	}
	actual, _ := bodyCodecs.LoadOrStore(rt, c)
	return actual.(*bodyCodec)
}

// reachesInterface reports whether a value of type rt can hold an
// interface anywhere. It also walks unexported fields and the insides of
// self-encoding types, which gob never looks at: a false positive only
// costs the type its memo.
func reachesInterface(rt reflect.Type, seen map[reflect.Type]bool) bool {
	if seen[rt] {
		return false
	}
	seen[rt] = true
	switch rt.Kind() {
	case reflect.Interface:
		return true
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return reachesInterface(rt.Elem(), seen)
	case reflect.Map:
		return reachesInterface(rt.Key(), seen) || reachesInterface(rt.Elem(), seen)
	case reflect.Struct:
		for i := 0; i < rt.NumField(); i++ {
			if reachesInterface(rt.Field(i).Type, seen) {
				return true
			}
		}
	}
	return false
}

// takeEncoder pops a primed encoder and returns the prefix its output
// lacks; (nil, nil) when none is parked or the type bypasses.
func (c *bodyCodec) takeEncoder() (*bodyEncoder, []byte) {
	if c == nil {
		return nil, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.encs)
	if n == 0 {
		return nil, nil
	}
	e := c.encs[n-1]
	c.encs = c.encs[:n-1]
	return e, c.prefix
}

// parkEncoder returns a primed encoder to the list; prefix is what its
// first message opened with.
func (c *bodyCodec) parkEncoder(e *bodyEncoder, prefix []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.prefix == nil {
		c.prefix = bytes.Clone(prefix)
	}
	if len(c.encs) < maxParked {
		c.encs = append(c.encs, e)
	}
}

// takeDecoder removes and returns a decoder primed with exactly prefix,
// or nil. A body from another build or another process (gob numbers
// types per process) carries other definitions and finds none.
func (c *bodyCodec) takeDecoder(prefix []byte) *bodyDecoder {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.decs) - 1; i >= 0; i-- {
		if d := c.decs[i]; bytes.Equal(d.prefix, prefix) {
			c.decs = append(c.decs[:i], c.decs[i+1:]...)
			return d
		}
	}
	return nil
}

// parkDecoder returns a decoder to the list, evicting the least recently
// parked when full so decoders for a peer that is gone age out.
func (c *bodyCodec) parkDecoder(d *bodyDecoder) {
	d.r.Reset(nil) // do not pin the body just decoded
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.decs) == maxParked {
		c.decs = c.decs[:copy(c.decs, c.decs[1:])]
	}
	c.decs = append(c.decs, d)
}

// valueOffset returns where the value message starts in a gob stream
// that is zero or more type-definition messages (negative type id)
// followed by exactly one value message, and -1 for any other b. One
// Encode of a type that reaches no interface writes exactly that. A
// value that carries an interface of a concrete type not yet defined
// does not: gob breaks its message in two around the definition, and a
// decoder that read it has learnt a type its prefix does not account
// for.
func valueOffset(b []byte) int {
	for off := 0; off < len(b); {
		size, n := gobUint(b[off:])
		// Compared as uint64 so that a length no int holds is refused.
		if n == 0 || size > uint64(len(b)-off-n) {
			return -1
		}
		end := off + n + int(size)
		id, m := gobUint(b[off+n : end])
		if m == 0 {
			return -1
		}
		if id&1 == 0 { // gob keeps an integer's sign in the low bit
			if end != len(b) {
				return -1
			}
			return off
		}
		off = end
	}
	return -1
}

// gobUint decodes gob's unsigned integer from the front of b — one byte
// below 128, else a negated byte count and that many big-endian bytes —
// returning the value and its width, or width 0 when b is short or
// malformed.
func gobUint(b []byte) (v uint64, width int) {
	if len(b) == 0 {
		return 0, 0
	}
	if b[0] < 0x80 {
		return uint64(b[0]), 1
	}
	n := -int(int8(b[0]))
	if n > 8 || len(b) <= n {
		return 0, 0
	}
	for _, x := range b[1 : 1+n] {
		v = v<<8 | uint64(x)
	}
	return v, 1 + n
}

// encodeBody gob-encodes an RPC argument or reply value: the bytes a
// fresh gob.Encoder writes, which is also literally what the first call
// for a type does.
func encodeBody(v interface{}) ([]byte, error) {
	c := codecFor(reflect.TypeOf(v))
	e, prefix := c.takeEncoder()
	primed := e != nil
	if !primed {
		e = &bodyEncoder{}
		e.enc = gob.NewEncoder(&e.buf)
	}
	e.buf.Reset()
	if err := e.enc.Encode(v); err != nil {
		// e is dropped: a failed Encode may have marked types as sent.
		return nil, fmt.Errorf("wire: encode body: %w", err)
	}
	out := make([]byte, len(prefix)+e.buf.Len())
	copy(out[copy(out, prefix):], e.buf.Bytes())
	if c == nil {
		return out, nil
	}
	if !primed {
		split := valueOffset(out)
		if split < 0 {
			return out, nil
		}
		prefix = out[:split]
	}
	c.parkEncoder(e, prefix)
	return out, nil
}

// decodeBody gob-decodes an RPC argument or reply value into v, as a
// fresh gob.Decoder over data would. A parked decoder serves only a body
// that opens with the very definitions it was primed with and goes on
// with one value message, and only a decoder that decoded such a body
// without error is parked, so no body can change what a later one
// decodes to.
func decodeBody(data []byte, v interface{}) error {
	c := codecFor(reflect.TypeOf(v))
	split := -1
	if c != nil {
		split = valueOffset(data)
	}
	var d *bodyDecoder
	if split >= 0 {
		d = c.takeDecoder(data[:split])
	}
	if d != nil {
		d.r.Reset(data[split:])
	} else {
		d = &bodyDecoder{}
		if split >= 0 {
			d.prefix = bytes.Clone(data[:split])
		}
		d.r.Reset(data)
		d.dec = gob.NewDecoder(&d.r)
	}
	if err := d.dec.Decode(v); err != nil {
		return fmt.Errorf("wire: decode body: %w", err)
	}
	if split >= 0 {
		c.parkDecoder(d)
	}
	return nil
}

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
// testers) talks through Client.CallCtx / Server handlers and never sees the
// emulation.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/bits"
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
	// ErrFrameTooLarge reports that the peer announced a message longer
	// than maxFrameBytes. The connection is dropped before any of the
	// message is read, so calls in flight on it see ErrConnLost.
	ErrFrameTooLarge = errors.New("wire: frame too large")
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
	// emits before the value message and id the type id that opens the
	// value message; the first encode records both.
	prefix, id []byte
	encs       freeList[*bodyEncoder]
	decs       []*bodyDecoder // least recently parked first
}

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
// lacks and the type id its value messages open with; all nil when none
// is parked or the type bypasses.
func (c *bodyCodec) takeEncoder() (e *bodyEncoder, prefix, id []byte) {
	if c == nil {
		return nil, nil, nil
	}
	if e, ok := c.encs.take(); ok {
		prefix, id = c.learnt()
		return e, prefix, id
	}
	return nil, nil, nil
}

// learn records what a fresh encoder's body opened with: split bytes of
// definitions, then the value message and its type id.
func (c *bodyCodec) learn(body []byte, split int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.prefix != nil {
		return
	}
	c.prefix = bytes.Clone(body[:split])
	c.id = bytes.Clone(valueTypeID(body, split))
}

// valueTypeID returns the bytes of the type id that opens the value
// message valueOffset found at split, after the message's length.
func valueTypeID(body []byte, split int) []byte {
	_, n := gobUint(body[split:])
	_, m := gobUint(body[split+n:])
	return body[split+n : split+n+m]
}

// learnt returns what learn recorded, nil before the first encode.
func (c *bodyCodec) learnt() (prefix, id []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.prefix, c.id
}

// parkEncoder returns a primed encoder to the list, unless the body it
// just encoded grew it past maxRetained: a gob.Encoder keeps a message
// buffer of its own as large as the largest value it wrote and offers no
// way to shrink it, so the encoder goes with its buffer and the next
// value of the type primes a new one.
func (c *bodyCodec) parkEncoder(e *bodyEncoder) {
	if e.buf.Cap() <= maxRetained {
		c.encs.put(e)
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
	if len(b) >= 9 { // anywhere but at the very end: one load, no loop
		return binary.BigEndian.Uint64(b[1:]) >> (8 * uint(8-n)), 1 + n
	}
	for _, x := range b[1 : 1+n] {
		v = v<<8 | uint64(x)
	}
	return v, 1 + n
}

// AppendGobUint appends gob's unsigned integer, the form gobUint reads,
// in the fewest bytes, as gob's encoder does.
func AppendGobUint(b []byte, v uint64) []byte {
	if v < 0x80 {
		return append(b, byte(v))
	}
	var buf [9]byte
	binary.BigEndian.PutUint64(buf[1:], v)
	zeros := bits.LeadingZeros64(v) / 8
	buf[zeros] = byte(zeros - 8) // minus the bytes that follow
	return append(b, buf[zeros:]...)
}

// AppendGobInt appends gob's signed integer: the magnitude shifted left
// one bit, complemented when negative, the sign in the low bit.
func AppendGobInt(b []byte, v int64) []byte {
	if v < 0 {
		return AppendGobUint(b, uint64(^v<<1)|1)
	}
	return AppendGobUint(b, uint64(v<<1))
}

// AppendGobFloat appends gob's float: the IEEE 754 bits byte-reversed, so
// that the exponent and the leading mantissa bytes come last and a round
// number is short.
func AppendGobFloat(b []byte, v float64) []byte {
	return AppendGobUint(b, bits.ReverseBytes64(math.Float64bits(v)))
}

// AppendGobString appends gob's string: its length, then its bytes.
func AppendGobString(b []byte, s string) []byte {
	return append(AppendGobUint(b, uint64(len(s))), s...)
}

// ReadGobUint is gobUint for a ReadGobValue: it accepts only what
// AppendGobUint writes, so an integer in more bytes than it needs has
// width 0 too. gob's decoder is more lenient; a value refused here may
// be one it accepts, never the other way round.
func ReadGobUint(b []byte) (v uint64, width int) {
	v, width = gobUint(b)
	if width > 1 && (b[1] == 0 || v < 0x80) {
		return 0, 0
	}
	return v, width
}

// GobInt undoes AppendGobInt's folding of the sign into the low bit.
func GobInt(u uint64) int64 {
	if u&1 != 0 {
		return ^int64(u >> 1)
	}
	return int64(u >> 1)
}

// GobFloat undoes AppendGobFloat's byte reversal.
func GobFloat(u uint64) float64 {
	return math.Float64frombits(bits.ReverseBytes64(u))
}

// gobValueAppender and gobValueReader are the value hook: a body type
// that carries both writes and reads the bytes of its own gob value
// message — what follows the message's length and type id — without
// reflection. AppendGobValue must append exactly what gob's encoder
// writes for the value; ReadGobValue may report true only when a fresh
// gob.Decoder, handed b for the receiver as it stood, would have
// succeeded and left it as ReadGobValue did, and must leave the receiver
// alone when it reports false. gob remains the reference both are tested
// against and the path every body the hook declines takes (DESIGN.md
// "Wire body codec").
type gobValueAppender interface {
	AppendGobValue(b []byte) []byte
}

type gobValueReader interface {
	// ReadGobValue must keep no reference into b: the body belongs to
	// whoever called decodeBody and may be reused as soon as it returns.
	ReadGobValue(b []byte) bool
}

// encodeBody gob-encodes an RPC argument or reply value: the bytes a
// fresh gob.Encoder writes, which is also literally what the first call
// for a type does. Once that call has taught the memo the definitions
// and the value message's type id, a value that carries the hook writes
// its own message between them and the parked encoder lends its buffer.
func encodeBody(v interface{}) ([]byte, error) { return encodeBodyFrom(nil, v) }

// encodeBodyFrom is encodeBody into storage taken from l, for a caller
// that knows when the body is dead and puts it back; with a nil l the
// result is a new slice of exactly the body's size.
func encodeBodyFrom(l *SliceList[byte], v interface{}) ([]byte, error) {
	c := codecFor(reflect.TypeOf(v))
	e, prefix, id := c.takeEncoder()
	primed := e != nil
	if !primed {
		e = &bodyEncoder{}
		e.enc = gob.NewEncoder(&e.buf)
	}
	e.buf.Reset()
	if a, ok := v.(gobValueAppender); ok && primed {
		val := a.AppendGobValue(e.buf.AvailableBuffer())
		e.buf.Write(val) // keeps what val grew into for the next value
		var width [9]byte
		size := AppendGobUint(width[:0], uint64(len(id)+len(val)))
		out := l.Take(len(prefix) + len(size) + len(id) + len(val))
		out = append(append(append(append(out, prefix...), size...), id...), val...)
		c.parkEncoder(e)
		return out, nil
	}
	if err := e.enc.Encode(v); err != nil {
		// e is dropped: a failed Encode may have marked types as sent.
		return nil, fmt.Errorf("wire: encode body: %w", err)
	}
	out := append(append(l.Take(len(prefix)+e.buf.Len()), prefix...), e.buf.Bytes()...)
	if c == nil {
		return out, nil
	}
	if !primed {
		split := valueOffset(out)
		if split < 0 {
			return out, nil
		}
		c.learn(out, split)
	}
	c.parkEncoder(e)
	return out, nil
}

// decodeBody gob-decodes an RPC argument or reply value into v, as a
// fresh gob.Decoder over data would. A parked decoder serves only a body
// that opens with the very definitions it was primed with and goes on
// with one value message, and only a decoder that decoded such a body
// without error is parked, so no body can change what a later one
// decodes to. A target that carries the value hook is offered the value
// message first, when the body opens exactly as this process's own
// encoder opens one; what it declines goes to gob as it came.
func decodeBody(data []byte, v interface{}) error {
	rt := reflect.TypeOf(v)
	c := codecFor(rt)
	split := -1
	if c != nil {
		split = valueOffset(data)
	}
	if r, ok := v.(gobValueReader); ok && split >= 0 && rt.Kind() == reflect.Pointer {
		if val, ok := ownValue(rt.Elem(), data, split); ok && r.ReadGobValue(val) {
			return nil
		}
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

// ownValue returns the value bytes of a body whose value message starts
// at split, if the body opens with the definitions and the type id this
// process's gob encoder gives a value of type rt. Only then do field
// numbers in the value mean rt's own fields: a decoder accepts any
// definitions it can match to rt by field name — another build's, with
// a field appended, renamed or moved — and bodies from a process that
// numbered its types differently differ here too; both are gob's to
// decode.
func ownValue(rt reflect.Type, data []byte, split int) ([]byte, bool) {
	c := codecFor(rt)
	prefix, id := c.learnt()
	if prefix == nil {
		// Nothing of this type has been encoded here yet: encode one.
		if _, err := encodeBody(reflect.Zero(rt).Interface()); err != nil {
			return nil, false
		}
		prefix, id = c.learnt()
	}
	_, n := gobUint(data[split:])
	msg := data[split+n:]
	if id == nil || !bytes.Equal(data[:split], prefix) || !bytes.HasPrefix(msg, id) {
		return nil, false
	}
	return msg[len(id):], true
}

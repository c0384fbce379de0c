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
	"strings"
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
	// ErrNotDurable reports that the far end took a dispatch record in
	// but its write-ahead log refused the commit that would have made it
	// durable, so the request was not acknowledged. Like ErrDraining it
	// fails over, since the same disk is likely to refuse again; unlike
	// it, the request was processed, and the point keeps the record.
	ErrNotDurable = errors.New("wire: commit not durable")
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
	// FailureNotDurable is a request whose record the far end could not
	// make durable (ErrNotDurable), so it was not acknowledged. It fails
	// over like FailureDraining.
	FailureNotDurable
)

// failureNames is each class's String.
var failureNames = [...]string{
	FailureNone: "none", FailureTimeout: "timeout", FailureLost: "lost", FailureRefused: "refused",
	FailureOverload: "overload", FailureClosed: "closed", FailureOther: "other",
	FailureExpired: "expired", FailureDraining: "draining", FailureNotDurable: "not-durable",
}

// String names the class.
func (c FailureClass) String() string {
	if c < 0 || int(c) >= len(failureNames) {
		return "other"
	}
	return failureNames[c]
}

// FailsOver reports whether a call that failed in class c should move
// its caller to another decision point at once: the far end refused the
// request unacknowledged, and would refuse the next one too.
func (c FailureClass) FailsOver() bool {
	return c == FailureDraining || c == FailureNotDurable
}

// wireErrors is every sentinel that crosses the wire, with its class. A
// handler's error travels as its text in frame.Err, and fromWire maps a
// text back. The reader takes only this build's frames, so a sentinel's
// text is as exact as a numeric code would be.
var wireErrors = [...]struct {
	err   error
	class FailureClass
}{
	{ErrConnLost, FailureLost},
	{ErrOverloaded, FailureOverload},
	{ErrExpired, FailureExpired},
	{ErrDraining, FailureDraining},
	{ErrNotDurable, FailureNotDurable},
}

// fromWire returns the error a frame's Err text stands for: a sentinel's
// text is the sentinel, and that text followed by ": " and a detail is
// the sentinel wrapped with the detail. Any other text is an
// application error.
func fromWire(text string) error {
	for _, w := range wireErrors {
		s := w.err.Error()
		if text == s {
			return w.err
		}
		if detail, ok := strings.CutPrefix(text, s); ok && strings.HasPrefix(detail, ": ") {
			return fmt.Errorf("%w%s", w.err, detail)
		}
	}
	return errors.New(text)
}

// Classify maps a Call error to its failure class: the client's own
// three sentinels, then the table of those that cross the wire.
func Classify(err error) FailureClass {
	switch {
	case err == nil:
		return FailureNone
	case errors.Is(err, ErrTimeout):
		return FailureTimeout
	case errors.Is(err, ErrRefused):
		return FailureRefused
	case errors.Is(err, ErrClosed):
		return FailureClosed
	}
	for _, w := range wireErrors {
		if errors.Is(err, w.err) {
			return w.class
		}
	}
	return FailureOther
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
// TestWireGolden). New fields must be appended after
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

// ErrForeignBody reports a body of a registered type that is not this
// build's definitions of the type followed by one value message, or a
// connection whose bytes are not this build's frames: another build's,
// or bytes that were never a body or a frame. Either is refused, not
// handed to a gob.Decoder (DESIGN.md "Wire body codec").
var ErrForeignBody = errors.New("wire: body not in this build's framing")

// Register numbers the types of values for gob, in the order given, then
// frame, and gives each type its body codec. gob numbers types
// process-wide, in order of first use, and writes the numbers into the
// definitions every body opens with. A type first met here, in a
// package's init, therefore takes the same number in every process of a
// build, and its bodies the same bytes. A type that reaches an interface
// is refused: gob defines the concrete type inside the first value that
// carries it, so its bodies do not all open alike. Register belongs in
// init; a type registered twice keeps its first codec. The first call
// numbers frame too, right after its own types (ownFrames).
func Register(values ...any) {
	for _, v := range values {
		rt := reflect.TypeOf(v)
		if _, ok := bodyCodecs.Load(rt); ok {
			continue
		}
		prefix, id, err := numberType(rt)
		if err != nil {
			//lint:allow nopanic -- a type registered at init that gob cannot number is a programming error
			panic(err)
		}
		c := &bodyCodec{prefix: prefix, id: id}
		bodyCodecs.Store(rt, c)
		bodyCodecs.Store(reflect.PointerTo(rt), c) // gob sends *T as T
	}
	ownFrames()
}

// numberType encodes rt's zero value with a fresh encoder, which numbers
// rt and everything it reaches unless gob already has, and returns the
// definitions ahead of the value message and the type id the message
// opens with.
func numberType(rt reflect.Type) (prefix, id []byte, err error) {
	if rt == nil || rt.Kind() == reflect.Pointer || reachesInterface(rt, map[reflect.Type]bool{}) {
		return nil, nil, fmt.Errorf("wire: cannot register %v: not a value type that reaches no interface", rt)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(reflect.Zero(rt).Interface()); err != nil {
		return nil, nil, fmt.Errorf("wire: register %v: %w", rt, err)
	}
	b := buf.Bytes()
	split := ValueOffset(b)
	if split < 0 {
		return nil, nil, fmt.Errorf("wire: register %v: gob wrote no single value message", rt)
	}
	_, n := gobUint(b[split:])
	_, m := gobUint(b[split+n:])
	return b[:split], b[split+n : split+n+m], nil
}

// bodyCodec is the codec of one registered type. A fresh gob.Encoder
// opens its stream with the type-definition messages of everything the
// value can reach and a fresh gob.Decoder compiles a decode engine from
// them — ~350 allocations around a 100-byte body. Both are functions of
// the type alone, so an encoder or decoder that has done so once is
// parked and later bodies cost their value message only. The bytes stay
// those of a fresh encoder (DESIGN.md "Wire body codec" says why they
// must).
type bodyCodec struct {
	// prefix is the definitions a fresh encoder writes ahead of a value
	// of the type and id the type id its value message opens with, both
	// fixed by Register.
	prefix, id []byte
	encs       freeList[*bodyEncoder]
	decs       freeList[*bodyDecoder] // each has read exactly prefix
}

// bodyEncoder is the storage one body is written into: body for a value
// that carries the hook, and for one that goes to gob an encoder, made
// for the first such value, that has sent the definitions into buf from
// then on.
type bodyEncoder struct {
	body []byte
	enc  *gob.Encoder
	buf  bytes.Buffer
}

// bodyDecoder is a decoder that has consumed exactly its codec's prefix
// from r.
type bodyDecoder struct {
	dec *gob.Decoder
	r   bytes.Reader
}

// bodyCodecs maps a registered type and its pointer type to the type's
// *bodyCodec.
var bodyCodecs sync.Map

// codecFor returns the codec of rt, or nil for a type never registered,
// whose every body is a fresh encoder's and a fresh decoder's work.
func codecFor(rt reflect.Type) *bodyCodec {
	c, _ := bodyCodecs.Load(rt)
	codec, _ := c.(*bodyCodec)
	return codec
}

// reachesInterface reports whether a value of type rt can hold an
// interface anywhere. It also walks unexported fields and the insides of
// self-encoding types, which gob never looks at: a false positive only
// refuses a registration.
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

// parkEncoder returns an encoder to the list, unless the body it just
// encoded grew it past maxRetained: a gob.Encoder keeps a message buffer
// of its own as large as the largest value it wrote and offers no way to
// shrink it, so the encoder goes with its buffer and the list makes a
// new one. A nil c parks nothing.
func (c *bodyCodec) parkEncoder(e *bodyEncoder) {
	if c != nil && e.buf.Cap() <= maxRetained && cap(e.body) <= maxRetained {
		c.encs.put(e)
	}
}

// lengthRoom is what appendHooked leaves for a value message's length
// before it knows it: the widest gob unsigned integer.
var lengthRoom [9]byte

// appendHooked appends to dst the body of a value whose value message a
// writes: the definitions, the message's length, the type id and the
// value. The value is written behind room for the widest length and
// moved up to the length gob writes.
func (c *bodyCodec) appendHooked(dst []byte, a gobValueAppender) ([]byte, bool) {
	start := len(dst)
	dst = append(dst, c.prefix...)
	at := len(dst)
	dst, ok := a.AppendGobValue(append(append(dst, lengthRoom[:]...), c.id...))
	if !ok {
		return dst[:start], false
	}
	var width [9]byte
	n := copy(dst[at:], AppendGobUint(width[:0], uint64(len(dst)-at-len(lengthRoom))))
	return dst[:at+n+copy(dst[at+n:], dst[at+len(lengthRoom):])], true
}

// ValueOffset returns where the value message starts in a gob stream
// that is zero or more type-definition messages (negative type id)
// followed by exactly one value message, and -1 for any other b. One
// Encode of a type that reaches no interface writes exactly that. A
// value that carries an interface of a concrete type not yet defined
// does not: gob breaks its message in two around the definition, and a
// decoder that read it has learnt a type its prefix does not account
// for.
func ValueOffset(b []byte) int {
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
// writes for the value, or report false for a value gob's encoder
// refuses (a time.Time it cannot marshal), which then goes to gob to
// fail with gob's error; ReadGobValue may report true only when a fresh
// gob.Decoder, handed b for the receiver as it stood, would have
// succeeded and left it as ReadGobValue did, and must leave the receiver
// alone when it reports false. gob remains the reference both are tested
// against and the path every body the hook declines takes (DESIGN.md
// "Wire body codec").
type gobValueAppender interface {
	AppendGobValue(b []byte) ([]byte, bool)
}

type gobValueReader interface {
	// ReadGobValue must keep no reference into b: the body belongs to
	// whoever called DecodeBody and may be reused as soon as it returns.
	ReadGobValue(b []byte) bool
}

// AppendBody appends to dst the body of v: the bytes a fresh gob.Encoder
// writes for it. A body of a registered type that carries the hook is
// its definitions, the framing of its value message and what
// AppendGobValue writes; any other goes to a parked encoder that has
// sent the definitions, and the definitions are written ahead of what it
// writes.
func AppendBody(dst []byte, v any) ([]byte, error) {
	c, e, body, err := encodeInto(v)
	if err != nil {
		return dst, err
	}
	dst = append(dst, body...)
	c.parkEncoder(e)
	return dst, nil
}

// encodeBodyFrom is AppendBody into storage taken from l, for a caller
// that knows when the body is dead and puts it back; with a nil l the
// result is a new slice of exactly the body's size.
func encodeBodyFrom(l *SliceList[byte], v any) ([]byte, error) {
	c, e, body, err := encodeInto(v)
	if err != nil {
		return nil, err
	}
	out := append(l.Take(len(body)), body...)
	c.parkEncoder(e)
	return out, nil
}

// encodeInto writes the body of v into the buffer of an encoder and
// returns it, with the codec to park the encoder with: nil for a type
// never registered, whose encoder is a fresh one every time. An encoder
// whose Encode failed is not returned: it may have marked types as sent.
func encodeInto(v any) (*bodyCodec, *bodyEncoder, []byte, error) {
	c := codecFor(reflect.TypeOf(v))
	var e *bodyEncoder
	if c != nil {
		e, _ = c.encs.take()
	}
	if e == nil {
		e = &bodyEncoder{}
	}
	if a, hooked := v.(gobValueAppender); hooked && c != nil {
		var ok bool
		if e.body, ok = c.appendHooked(e.body[:0], a); ok {
			return c, e, e.body, nil
		}
	}
	e.buf.Reset()
	if e.enc == nil {
		e.enc = gob.NewEncoder(&e.buf) // writes the definitions itself
	} else {
		e.buf.Write(c.prefix)
	}
	if err := e.enc.Encode(v); err != nil {
		return nil, nil, nil, fmt.Errorf("wire: encode body: %w", err)
	}
	return c, e, e.buf.Bytes(), nil
}

// DecodeBody gob-decodes a body into v, a pointer. For a registered type
// it serves only a body that is this build's definitions of the type and
// one value message, and refuses any other with ErrForeignBody. A target
// that carries the value hook is offered the value message first; what
// it declines goes to a decoder primed with the definitions, as a fresh
// gob.Decoder over the body would read it. Only a decoder that decoded
// without error is parked, so no body can change what a later one
// decodes to. A type never registered is a fresh decoder's every time.
func DecodeBody(data []byte, v any) error {
	c := codecFor(reflect.TypeOf(v))
	if c == nil {
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
			return fmt.Errorf("wire: decode body: %w", err)
		}
		return nil
	}
	msg, ok := bytes.CutPrefix(data, c.prefix)
	if !ok || ValueOffset(msg) != 0 {
		return fmt.Errorf("%w: %T", ErrForeignBody, v)
	}
	if r, ok := v.(gobValueReader); ok {
		_, n := gobUint(msg)
		if val, ok := bytes.CutPrefix(msg[n:], c.id); ok && r.ReadGobValue(val) {
			return nil
		}
	}
	d, ok := c.decs.take()
	if ok {
		d.r.Reset(msg)
	} else {
		d = &bodyDecoder{}
		d.r.Reset(data)
		d.dec = gob.NewDecoder(&d.r)
	}
	if err := d.dec.Decode(v); err != nil {
		return fmt.Errorf("wire: decode body: %w", err)
	}
	d.r.Reset(nil) // do not pin the body just decoded
	c.decs.put(d)
	return nil
}

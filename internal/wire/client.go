package wire

import (
	"encoding/gob"
	"fmt"
	"sync"
	"time"

	"digruber/internal/netsim"
	"digruber/internal/trace"
	"digruber/internal/vtime"
)

// Client is an RPC client bound to one server address. Every call pays
// the emulated WAN propagation delay between the client's node and the
// server's node in each direction, exactly as a GRUBER client on one
// PlanetLab node querying a decision point on another would. Calls may be
// issued concurrently; they multiplex over one connection.
type Client struct {
	node       string
	serverNode string
	addr       string
	transport  Transport
	network    *netsim.Network
	clock      vtime.Clock
	retry      RetryPolicy
	tracer     *trace.Tracer
	metrics    *ClientMetrics
	propagate  bool

	mu      sync.Mutex
	conn    Conn
	enc     *gob.Encoder
	pending map[uint64]*callSlot
	nextID  uint64
	closed  bool

	// wmu serializes writes to the connection, separately from mu: a
	// request write can block on a backed-up pipe, and holding mu there
	// would stop readLoop from draining responses — the two directions
	// would deadlock through the server (same split as serverConn.wmu).
	// out is the frame being written, encoded from here so that it is
	// not boxed into the encoder's interface argument per call.
	wmu sync.Mutex
	out frame

	// slots holds the per-call state of calls that have returned.
	slots freeList[*callSlot]

	// bodies is where the read loop takes the storage of each response
	// Body from. A typed call puts it back once it has decoded the reply;
	// the bytes a raw CallCtx returns are its caller's for good.
	bodies SliceList[byte]
}

// ClientConfig collects the wiring a Client needs.
type ClientConfig struct {
	// Node is the emulated node the client runs on.
	Node string
	// ServerNode is the emulated node the target server runs on (used
	// for WAN delay sampling; may differ from the dial address).
	ServerNode string
	// Addr is the transport address to dial.
	Addr      string
	Transport Transport
	Network   *netsim.Network
	Clock     vtime.Clock
	// Retry optionally retries fast-failing calls (refused, connection
	// lost, shed). The zero value disables retry.
	Retry RetryPolicy
	// Tracer, when non-nil, records per-attempt and WAN-transit spans
	// for calls carrying a trace context (CallCtx). Nil disables tracing
	// at zero cost.
	Tracer *trace.Tracer
	// Metrics, when non-nil, counts calls, attempts, retries and
	// per-failure-class outcomes. A set may be shared by many clients to
	// aggregate a fleet; nil disables counting at zero cost.
	Metrics *ClientMetrics
	// PropagateDeadline stamps each request frame with the call's
	// absolute deadline, letting the server drop requests that expire in
	// its queue (ErrExpired) instead of burning a worker on them. Off by
	// default: unstamped frames are byte-identical to pre-deadline
	// builds.
	PropagateDeadline bool
}

// RetryPolicy bounds automatic retry of failed calls. Only failures the
// client observes quickly and that a fresh attempt can plausibly cure
// are retried — FailureRefused, FailureLost and FailureOverload.
// Timeouts are never retried: the caller already paid its full deadline
// and its own degradation path (DI-GRUBER's random fallback) owns what
// happens next.
type RetryPolicy struct {
	// Attempts is the total number of tries including the first;
	// values <= 1 disable retry.
	Attempts int
	// BaseBackoff is the pause before the second attempt; it doubles on
	// each further retry, capped at 8x BaseBackoff.
	BaseBackoff time.Duration
	// JitterFrac in [0, 1] extends each backoff by a uniform draw in
	// [0, JitterFrac*backoff), decorrelating retry storms. Jitter
	// supplies the randomness (a netsim.Stream keeps it replayable);
	// with Jitter nil no jitter is applied.
	JitterFrac float64
	Jitter     interface{ Float64() float64 }
	// Budget, when non-nil, is a windowed retry budget (usually shared
	// fleet-wide): every retry must first win a token, and a denied
	// retry surfaces the original failure immediately. Backoff bounds
	// retries in time; the budget bounds them in volume — together they
	// cap a saturated fleet's retry amplification.
	Budget *RetryBudget
}

// enabled reports whether the policy retries at all.
func (p RetryPolicy) enabled() bool { return p.Attempts > 1 }

// retryable reports whether a failure class is worth another attempt.
func (p RetryPolicy) retryable(err error) bool {
	switch Classify(err) {
	case FailureRefused, FailureLost, FailureOverload:
		return true
	default:
		return false
	}
}

// backoff computes the pause before attempt n (n=1 is the first retry).
func (p RetryPolicy) backoff(n int) time.Duration {
	d := p.BaseBackoff
	for i := 1; i < n; i++ {
		d *= 2
	}
	if max := 8 * p.BaseBackoff; d > max {
		d = max
	}
	if p.JitterFrac > 0 && p.Jitter != nil && d > 0 {
		d += time.Duration(p.Jitter.Float64() * p.JitterFrac * float64(d))
	}
	return d
}

// NewClient returns a client; it dials lazily on first call.
func NewClient(cfg ClientConfig) *Client {
	return &Client{
		node:       cfg.Node,
		serverNode: cfg.ServerNode,
		addr:       cfg.Addr,
		transport:  cfg.Transport,
		network:    cfg.Network,
		clock:      cfg.Clock,
		retry:      cfg.Retry,
		tracer:     cfg.Tracer,
		metrics:    cfg.Metrics,
		propagate:  cfg.PropagateDeadline,
		pending:    make(map[uint64]*callSlot),
	}
}

// callSlot is what one call waits with, kept for the client's next call:
// the channel its reply frame arrives on and the alarm that ends the
// wait. Whoever takes a call out of pending — the read loop, dropConn,
// Close — sends exactly one frame to its slot; a call that timed out
// after that frame was taken drains it before the slot is reused, so a
// late reply never reaches the slot's next call (DESIGN.md "Who owns a
// buffer").
type callSlot struct {
	reply chan frame // capacity 1: the one send never blocks
	alarm vtime.Alarm
}

// takeSlot returns a slot with an empty reply channel.
func (c *Client) takeSlot() *callSlot {
	if s, ok := c.slots.take(); ok {
		return s
	}
	return &callSlot{reply: make(chan frame, 1), alarm: c.clock.NewAlarm()}
}

// releaseSlot ends the call registered in s under id and parks s. A call
// still pending is taken out, so nothing will send to s; one that is not
// has its frame sent or on the way, and that frame is drained here.
func (c *Client) releaseSlot(s *callSlot, id uint64) {
	c.mu.Lock()
	_, pending := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	if !pending {
		f := <-s.reply
		c.bodies.Put(f.Body) // a late reply nobody reads
	}
	c.slots.put(s)
}

// ensureConn dials if the client has no connection. Caller must not
// hold c.mu.
func (c *Client) ensureConn() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if c.conn != nil {
		return nil
	}
	conn, err := c.transport.Dial(c.addr)
	if err != nil {
		return fmt.Errorf("%w: dial %s: %v", ErrRefused, c.addr, err)
	}
	c.conn = conn
	c.enc = gob.NewEncoder(conn)
	go c.readLoop(conn)
	return nil
}

func (c *Client) readLoop(conn Conn) {
	fr := newFrameReader(conn, &c.bodies)
	for {
		f, err := fr.next()
		if err != nil {
			c.dropConn(conn, err)
			return
		}
		c.mu.Lock()
		s, ok := c.pending[f.ID]
		if ok {
			delete(c.pending, f.ID)
		}
		c.mu.Unlock()
		if ok {
			s.reply <- f // buffered; never blocks
		} else {
			c.bodies.Put(f.Body) // the call gave up waiting
		}
	}
}

// dropConn tears down a dead connection and fails its pending calls.
func (c *Client) dropConn(conn Conn, cause error) {
	c.mu.Lock()
	if c.conn != conn {
		c.mu.Unlock()
		return
	}
	c.conn = nil
	c.enc = nil
	orphans := c.pending
	c.pending = make(map[uint64]*callSlot)
	c.mu.Unlock()
	_ = conn.Close()
	//lint:allow mapiter -- each orphaned call has its own reply channel; delivery order is immaterial
	for _, s := range orphans {
		s.reply <- frame{Err: fmt.Sprintf("%v: %v", ErrConnLost, cause)} // read back by fromWire
	}
}

// frameClosed is the Kind of the frame Close sends a call it took out of
// pending, which CallCtx maps to ErrClosed. It never crosses the wire.
const frameClosed = frameResponse + 1

// CallCtx performs one RPC with the given timeout. body is the
// gob-encoded request; the returned bytes are the gob-encoded response.
// On timeout it returns ErrTimeout — the caller's fallback logic (random
// site selection) takes over from there. Errors carry a FailureClass (see
// Classify); when a RetryPolicy is configured, fast retryable failures
// are re-attempted with exponential backoff before surfacing. Each
// attempt, each WAN transit and each retry backoff becomes a child span
// of parent, and the context rides the request frame so the server's own
// spans join the same trace; a zero parent (or no Tracer configured)
// leaves the call untraced.
func (c *Client) CallCtx(parent trace.SpanContext, method string, body []byte, timeout time.Duration) ([]byte, error) {
	c.metrics.onCall()
	resp, err := c.callOnce(parent, method, body, timeout)
	if err == nil || !c.retry.enabled() {
		return resp, err
	}
	for attempt := 1; attempt < c.retry.Attempts && c.retry.retryable(err); attempt++ {
		// The budget check comes before the backoff sleep: a denied retry
		// should fail over (or degrade) immediately, not pay a pause for
		// an attempt it will never make.
		if !c.retry.Budget.Allow() {
			c.metrics.onThrottle()
			break
		}
		if d := c.retry.backoff(attempt); d > 0 {
			bs := c.tracer.StartSpan(parent, trace.PhaseBackoff)
			c.clock.Sleep(d)
			bs.End()
		}
		resp, err = c.callOnce(parent, method, body, timeout)
		if err == nil {
			return resp, nil
		}
	}
	return resp, err
}

// callOnce is a single RPC attempt, wrapped in its attempt span.
func (c *Client) callOnce(parent trace.SpanContext, method string, body []byte, timeout time.Duration) ([]byte, error) {
	c.metrics.onAttempt()
	attempt := c.tracer.StartSpan(parent, trace.PhaseAttempt)
	attempt.SetNote(method)
	resp, err := c.attemptCall(attempt.Context(), method, body, timeout)
	attempt.End()
	return resp, err
}

// attemptCall performs the attempt under ctx (zero when untraced).
func (c *Client) attemptCall(ctx trace.SpanContext, method string, body []byte, timeout time.Duration) ([]byte, error) {
	start := c.clock.Now()
	deadline := start.Add(timeout)

	// Outbound WAN propagation.
	if c.network != nil {
		d := c.network.Delay(c.node, c.serverNode)
		if d > 0 {
			ws := c.tracer.StartSpan(ctx, trace.PhaseWANOut)
			c.clock.Sleep(d)
			ws.End()
		}
		if c.network.LostMsg(c.node, c.serverNode, c.clock.Now()) {
			// The request vanished in the WAN; all the client observes is
			// silence until its timeout.
			c.sleepUntil(deadline)
			return nil, ErrTimeout
		}
	}

	if err := c.ensureConn(); err != nil {
		return nil, err
	}

	s := c.takeSlot()
	c.mu.Lock()
	enc := c.enc
	conn := c.conn
	if enc == nil {
		// The read loop dropped the connection (or Close took it) after
		// ensureConn saw it up: nobody would fail a call registered now.
		c.mu.Unlock()
		c.slots.put(s)
		return nil, fmt.Errorf("%w: dropped before send", ErrConnLost)
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = s
	c.mu.Unlock()

	var dl int64
	if c.propagate {
		dl = deadline.UnixNano()
	}
	c.wmu.Lock()
	c.out = frame{ID: id, Kind: frameRequest, Method: method, Body: body,
		Trace: ctx.Trace, Span: ctx.Span, Deadline: dl}
	err := enc.Encode(&c.out)
	c.out = frame{} // the body is the caller's again
	c.wmu.Unlock()
	if err != nil {
		c.releaseSlot(s, id)
		c.dropConn(conn, err)
		return nil, fmt.Errorf("%w: send: %v", ErrConnLost, err)
	}
	c.metrics.onBytesSent(method, len(body))

	remaining := deadline.Sub(c.clock.Now())
	if remaining <= 0 {
		c.releaseSlot(s, id)
		return nil, ErrTimeout
	}
	s.alarm.Reset(remaining)
	select {
	case f := <-s.reply:
		c.slots.put(s) // its one frame is taken
		if f.Kind == frameClosed {
			return nil, ErrClosed // Close took the call out of pending
		}
		c.metrics.onBytesReceived(method, len(f.Body))
		if f.Err != "" {
			return nil, fromWire(f.Err)
		}
		// Inbound WAN propagation.
		if c.network != nil {
			if c.network.LostMsg(c.serverNode, c.node, c.clock.Now()) {
				c.bodies.Put(f.Body)
				c.sleepUntil(deadline)
				return nil, ErrTimeout
			}
			d := c.network.Delay(c.serverNode, c.node)
			if d > 0 {
				ws := c.tracer.StartSpan(ctx, trace.PhaseWANIn)
				c.clock.Sleep(d)
				ws.End()
			}
		}
		if c.clock.Now().After(deadline) {
			c.bodies.Put(f.Body)
			return nil, ErrTimeout
		}
		return f.Body, nil
	case <-s.alarm.C():
		c.releaseSlot(s, id)
		return nil, ErrTimeout
	}
}

func (c *Client) sleepUntil(deadline time.Time) {
	if d := deadline.Sub(c.clock.Now()); d > 0 {
		c.clock.Sleep(d)
	}
}

// Close tears the connection down; calls in flight and subsequent calls
// fail with ErrClosed.
func (c *Client) Close() {
	c.mu.Lock()
	c.closed = true
	conn := c.conn
	c.conn = nil
	c.enc = nil
	// The read loop's dropConn will find c.conn already gone and leave
	// the pending calls alone, so they are failed here.
	orphans := c.pending
	c.pending = make(map[uint64]*callSlot)
	c.mu.Unlock()
	if conn != nil {
		_ = conn.Close()
	}
	//lint:allow mapiter -- each orphaned call has its own reply channel; delivery order is immaterial
	for _, s := range orphans {
		s.reply <- frame{Kind: frameClosed}
	}
}

// Call performs a typed RPC through c: req is gob-encoded, the response
// is decoded into a Resp value.
func Call[Req, Resp any](c *Client, method string, req Req, timeout time.Duration) (Resp, error) {
	return CallCtx[Req, Resp](c, trace.SpanContext{}, method, req, timeout)
}

// CallCtx is the typed form of Client.CallCtx: a traced RPC whose
// attempt and WAN spans are children of parent.
func CallCtx[Req, Resp any](c *Client, parent trace.SpanContext, method string, req Req, timeout time.Duration) (Resp, error) {
	var resp Resp
	body, err := encodeBodyFrom(&c.bodies, req)
	if err != nil {
		return resp, err
	}
	respBody, err := c.CallCtx(parent, method, body, timeout)
	c.bodies.Put(body) // every attempt has written it
	if err != nil {
		return resp, err
	}
	err = DecodeBody(respBody, &resp)
	c.bodies.Put(respBody) // decoding copies out of the body
	return resp, err
}

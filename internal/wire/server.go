package wire

import (
	"encoding/gob"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"digruber/internal/trace"
	"digruber/internal/vtime"
)

// Ctx carries per-request server-side context into handlers. Span is
// the trace context the handler runs under (zero when the request is
// untraced); handlers pass it down so engine-level spans attach to the
// caller's trace.
type Ctx struct {
	Span trace.SpanContext
	// call is the worker's per-request state; nil only in a Ctx that no
	// worker made, which no handler ever sees.
	call *serverCall
}

// serverCall is what a handler leaves for Server.process, which knows
// when the reply is encoded and when it has been sent. One per worker,
// cleared after every request.
type serverCall struct {
	afterReply func()
	// reply is the encoded reply when its storage came from Server.bodies.
	// A raw handler's bytes are its own — an echo returns its request —
	// and never land here.
	reply []byte
}

// AfterReply registers fn to run once the handler has returned and its
// reply is encoded — when storage the reply value was built in can go
// back to whoever owns it. At most one fn per request.
func (c Ctx) AfterReply(fn func()) {
	if c.call != nil {
		c.call.afterReply = fn
	} else {
		fn()
	}
}

// CtxHandler is a Handler that also receives the request context.
type CtxHandler func(ctx Ctx, body []byte) ([]byte, error)

// Server is an RPC server fronted by an emulated web-service container
// (see StackProfile). Register handlers, then call Serve with a Listener.
type Server struct {
	node    string // node name, for WAN delay bookkeeping and reports
	profile StackProfile
	clock   vtime.Clock
	// tracer records server-side spans for traced requests; set it with
	// SetTracer before Serve. Nil disables tracing at zero cost.
	tracer *trace.Tracer

	mu       sync.RWMutex
	handlers map[string]CtxHandler
	closed   bool
	conns    map[*serverConn]struct{}

	work    chan job
	closeCh chan struct{}

	// Reserved lane (see ReserveLane): laneMethods routes matching
	// requests into laneWork, which dedicated workers drain — so mesh
	// and monitoring RPCs don't wait behind a saturated client queue.
	// Both are set before Serve and never change afterwards.
	laneMethods map[string]bool
	laneWork    chan job

	// counters
	received     atomic.Int64
	completed    atomic.Int64
	failed       atomic.Int64
	shed         atomic.Int64
	connLost     atomic.Int64
	expired      atomic.Int64
	inflight     atomic.Int64
	laneInflight atomic.Int64
	// serviceNs totals the emulated service time of every request that
	// ended completed or failed; Stats divides it into ServiceMean.
	serviceNs atomic.Int64

	// bytes ledgers payload bytes in/out, per method (see bytes.go).
	bytes byteBook

	// bodies is where each connection's reader takes the storage of a
	// request Body from and a typed handler that of its encoded reply. The
	// typed handler puts the request back once it has decoded it, process
	// the reply once send has returned.
	bodies SliceList[byte]
}

type job struct {
	conn *serverConn
	f    frame
	// enqueuedAt is set for traced requests only, to measure the wait
	// for a container worker as a server.queue span.
	enqueuedAt time.Time
}

// NewServer returns a server for the given emulated node name, container
// profile and clock.
func NewServer(node string, profile StackProfile, clock vtime.Clock) *Server {
	s := &Server{
		node:     node,
		profile:  profile,
		clock:    clock,
		handlers: make(map[string]CtxHandler),
		conns:    make(map[*serverConn]struct{}),
		work:     make(chan job, profile.queueLimit()),
		closeCh:  make(chan struct{}),
	}
	for i := 0; i < profile.workers(); i++ {
		go s.worker()
	}
	return s
}

// ReserveLane dedicates workers container threads (with a waiting queue
// of queueLimit, default 16) to the given methods, routing them around
// the shared accept queue. This is capacity reservation for control
// traffic: a decision point drowning in client queries would otherwise
// also starve its mesh exchanges and Status polls, coupling overload to
// view divergence and monitoring blindness. Lane overflow is shed like
// main-queue overflow.
//
// Call before Serve; the lane is fixed for the server's lifetime.
func (s *Server) ReserveLane(workers, queueLimit int, methods ...string) {
	if workers <= 0 || len(methods) == 0 {
		return
	}
	if queueLimit <= 0 {
		queueLimit = 16
	}
	s.mu.Lock()
	if s.laneWork != nil || s.closed {
		s.mu.Unlock()
		return
	}
	s.laneMethods = make(map[string]bool, len(methods))
	for _, m := range methods {
		s.laneMethods[m] = true
	}
	s.laneWork = make(chan job, queueLimit)
	lane := s.laneWork
	s.mu.Unlock()
	for i := 0; i < workers; i++ {
		go s.laneWorker(lane)
	}
}

func (s *Server) laneWorker(lane chan job) {
	var call serverCall
	for {
		select {
		case j := <-lane:
			s.laneInflight.Add(1)
			s.process(j, &call)
			s.laneInflight.Add(-1)
		case <-s.closeCh:
			return
		}
	}
}

// SetTracer installs the tracer server-side spans are recorded against.
// Call it before Serve; requests in flight during a swap may record
// against either tracer.
func (s *Server) SetTracer(t *trace.Tracer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tracer = t
}

func (s *Server) getTracer() *trace.Tracer {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.tracer
}

// RegisterCtx installs a raw context-aware handler for a method name.
// Registering after Serve has started is allowed.
func (s *Server) RegisterCtx(method string, h CtxHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = h
}

// Handle registers a typed handler: the request body is decoded into Req,
// and the returned Resp is encoded as the response body.
func Handle[Req, Resp any](s *Server, method string, fn func(Req) (Resp, error)) {
	HandleCtx(s, method, func(_ Ctx, req Req) (Resp, error) {
		return fn(req)
	})
}

// HandleCtx registers a typed handler that also receives the request
// context, so it can attach further spans to the caller's trace.
func HandleCtx[Req, Resp any](s *Server, method string, fn func(Ctx, Req) (Resp, error)) {
	s.RegisterCtx(method, func(ctx Ctx, body []byte) ([]byte, error) {
		var req Req
		err := decodeBody(body, &req)
		s.bodies.Put(body) // decoding copies out of the body
		if err != nil {
			return nil, err
		}
		resp, err := fn(ctx, req)
		if err != nil {
			return nil, err
		}
		ctx.call.reply, err = encodeBodyFrom(&s.bodies, resp)
		return ctx.call.reply, err
	})
}

// Serve accepts connections from l until the listener or server closes.
// It blocks; run it in a goroutine.
func (s *Server) Serve(l Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			select {
			case <-s.closeCh:
				return nil
			default:
				return err
			}
		}
		go s.serveConn(conn)
	}
}

type serverConn struct {
	raw Conn
	enc *gob.Encoder
	wmu sync.Mutex
}

func (c *serverConn) send(f frame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.enc.Encode(f)
}

func (s *Server) serveConn(raw Conn) {
	conn := &serverConn{raw: raw, enc: gob.NewEncoder(raw)}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		raw.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	fr := newFrameReader(raw, &s.bodies)
	defer func() {
		raw.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	for {
		f, err := fr.next()
		if err != nil {
			return
		}
		if f.Kind != frameRequest {
			continue
		}
		s.received.Add(1)
		s.bytes.count(f.Method, len(f.Body), 0)
		j := job{conn: conn, f: f}
		if f.Trace != 0 && s.getTracer() != nil {
			j.enqueuedAt = s.clock.Now()
		}
		queue := s.work
		if s.laneWork != nil && s.laneMethods[f.Method] {
			queue = s.laneWork
		}
		select {
		case queue <- j:
		default:
			// Accept queue full: shed load, as a saturated container
			// effectively does once its thread and backlog limits are hit.
			s.shed.Add(1)
			_ = conn.send(frame{ID: f.ID, Kind: frameResponse, Err: ErrOverloaded.Error()})
		}
	}
}

func (s *Server) worker() {
	var call serverCall
	for {
		select {
		case j := <-s.work:
			s.process(j, &call)
		case <-s.closeCh:
			return
		}
	}
}

func (s *Server) process(j job, call *serverCall) {
	// Stale-work control: a request whose propagated deadline has passed
	// is dropped here, at dequeue, before the handler or the emulated
	// stack cost — its caller already timed out, so finishing the work
	// would only be counted as ConnLost after burning a worker for the
	// full service time. Expired drops are their own stat, not folded
	// into completed or failed.
	if dl := j.f.Deadline; dl != 0 && !s.clock.Now().Before(time.Unix(0, dl)) {
		s.expired.Add(1)
		if err := j.conn.send(frame{ID: j.f.ID, Kind: frameResponse, Err: ErrExpired.Error()}); err != nil {
			s.connLost.Add(1)
		}
		return
	}

	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	s.mu.RLock()
	h, ok := s.handlers[j.f.Method]
	tracer := s.tracer
	s.mu.RUnlock()

	parent := trace.SpanContext{Trace: j.f.Trace, Span: j.f.Span}
	if !j.enqueuedAt.IsZero() {
		tracer.RecordSpan(parent, trace.PhaseQueue, j.enqueuedAt, s.clock.Now())
	}

	var respBody []byte
	var errStr string
	if !ok {
		errStr = fmt.Sprintf("wire: unknown method %q", j.f.Method)
	} else {
		hs := tracer.StartSpan(parent, trace.PhaseHandle)
		hs.SetNote(j.f.Method)
		body, err := h(Ctx{Span: hs.Context(), call: call}, j.f.Body)
		hs.End()
		if call.afterReply != nil {
			call.afterReply()
		}
		if err != nil {
			errStr = err.Error()
		} else {
			respBody = body
		}
	}

	// The container occupies a worker for the emulated service time of
	// the full payload (request plus response), which is where GT3/GT4
	// auth+SOAP cost shows up.
	st := s.profile.ServiceTime(len(j.f.Body) + len(respBody))
	if st > 0 {
		ss := tracer.StartSpan(parent, trace.PhaseStack)
		s.clock.Sleep(st)
		ss.End()
	}
	s.serviceNs.Add(int64(st))

	if errStr != "" {
		s.failed.Add(1)
	} else {
		s.completed.Add(1)
	}
	s.bytes.count(j.f.Method, 0, len(respBody))
	if err := j.conn.send(frame{ID: j.f.ID, Kind: frameResponse, Body: respBody, Err: errStr}); err != nil {
		// The response had nowhere to go: the caller hung up (timed out,
		// failed over, or died) before the container finished.
		s.connLost.Add(1)
	}
	// send has returned: sent or not, nothing reads the reply again.
	s.bodies.Put(call.reply)
	*call = serverCall{}
}

// Close stops the workers and severs every active connection, as a
// container shutdown would. In-flight requests finish into the void.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	conns := make([]*serverConn, 0, len(s.conns))
	//lint:allow mapiter -- teardown: every connection is closed; close order is immaterial
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	close(s.closeCh)
	for _, c := range conns {
		_ = c.raw.Close()
	}
}

// Stats is a snapshot of server-side load counters, the raw material for
// the saturation detector of Section 5.
type Stats struct {
	Received  int64
	Completed int64
	Failed    int64
	Shed      int64
	// ConnLost counts responses the server computed but could not
	// deliver because the connection was gone — work done for a caller
	// that had already timed out or failed over. Together with Shed
	// (rejected before processing) and Completed (served) this
	// partitions where every accepted request's effort went.
	ConnLost int64
	// Expired counts requests dropped unprocessed at dequeue because the
	// caller's propagated deadline had already passed — work the overload
	// control plane refused to waste (the handler is never invoked).
	Expired  int64
	InFlight int64
	Queued   int
	// LaneQueued and LaneInFlight describe the reserved lane (see
	// ReserveLane); both zero when no lane is configured.
	LaneQueued   int
	LaneInFlight int64
	// ServiceMean is the mean emulated service time in seconds.
	ServiceMean float64
	// BytesIn and BytesOut total the payload bytes received (request
	// bodies) and sent (response bodies) across all methods; the
	// per-method split is Server.MethodIO.
	BytesIn  int64
	BytesOut int64
}

// Stats returns a consistent-enough snapshot of the server counters.
func (s *Server) Stats() Stats {
	completed, failed := s.completed.Load(), s.failed.Load()
	mean := 0.0
	if served := completed + failed; served > 0 {
		mean = time.Duration(s.serviceNs.Load()).Seconds() / float64(served)
	}
	laneQueued := 0
	if s.laneWork != nil {
		laneQueued = len(s.laneWork)
	}
	bytesIn, bytesOut := s.bytes.totals()
	return Stats{
		BytesIn:      bytesIn,
		BytesOut:     bytesOut,
		Received:     s.received.Load(),
		Completed:    completed,
		Failed:       failed,
		Shed:         s.shed.Load(),
		ConnLost:     s.connLost.Load(),
		Expired:      s.expired.Load(),
		InFlight:     s.inflight.Load(),
		Queued:       len(s.work),
		LaneQueued:   laneQueued,
		LaneInFlight: s.laneInflight.Load(),
		ServiceMean:  mean,
	}
}

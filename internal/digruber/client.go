package digruber

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"digruber/internal/grid"
	"digruber/internal/gruber"
	"digruber/internal/netsim"
	"digruber/internal/trace"
	"digruber/internal/tsdb"
	"digruber/internal/vtime"
	"digruber/internal/wire"
)

// ClientConfig wires one submission host's GRUBER client.
type ClientConfig struct {
	// Name is the submission host identity (job SubmitHost).
	Name string
	// Node is the emulated network node the host runs on.
	Node string
	// DPName, DPNode and DPAddr identify the statically-assigned
	// decision point (the paper binds each client to one, chosen
	// randomly at startup).
	DPName string
	DPNode string
	DPAddr string

	Transport wire.Transport
	Network   *netsim.Network
	Clock     vtime.Clock

	// Timeout is the per-request deadline after which the client falls
	// back to random site selection without considering USLAs.
	Timeout time.Duration
	// Selector ranks the decision point's answers (default USLAAware).
	Selector gruber.Selector
	// FallbackSites is the static site list used for random fallback;
	// every submission host knows the grid's membership.
	FallbackSites []string
	// RNG drives the fallback selection (netsim.Stream provides one);
	// nil gets a deterministic per-client stream.
	RNG randSource
	// SingleCall switches to the one-round-trip coupling the paper's
	// conclusion proposes: the decision point runs site selection itself
	// and records the dispatch, so no site state crosses the WAN and no
	// separate report is needed.
	SingleCall bool
	// Failover optionally lists alternate decision points. After
	// failoverThreshold consecutive failed interactions with the bound
	// point the client rebinds to the next entry (cycling, skipping the
	// current binding) — a cheaper first resort than staying bound to a
	// dead broker and paying a timeout plus random fallback per job.
	Failover []DPRef
	// Tracer, when non-nil, opens a client.schedule root span per job and
	// threads its context through every RPC, so the whole request path —
	// retries, WAN transits, server queueing, engine work — lands in one
	// trace. Nil disables tracing at zero cost.
	Tracer *trace.Tracer
	// WireMetrics, when non-nil, aggregates this client's RPC outcomes
	// (attempts, retries, failure classes). Shared across a fleet of
	// submission hosts it gives one set of fleet-wide counters; it also
	// survives failover rebinds, which build fresh wire clients.
	WireMetrics *wire.ClientMetrics
	// Retry is the per-call retry policy applied to every wire client
	// this client builds (including the fresh ones failover rebinds
	// create). The zero value disables retries. Give the policy a shared
	// Budget to cap fleet-wide retry amplification under saturation.
	Retry wire.RetryPolicy
	// PropagateDeadline stamps each RPC's absolute deadline into the
	// request envelope, so a drowning decision point can drop the call
	// unprocessed at dequeue once answering is already pointless.
	PropagateDeadline bool
	// Breaker enables a circuit breaker per decision-point address when
	// Breaker.Threshold > 0 (the zero config disables breaking). The
	// breaker trips on consecutive transport-level failures, fails calls
	// locally while open — the fallback path answers instantly instead
	// of paying a timeout per job against a dead broker — and re-closes
	// via a half-open probe. Breaker.Clock defaults to the client Clock.
	Breaker wire.BreakerConfig
	// LoadAwareFailover makes a failover rebind probe the candidates'
	// Status and bind to the least-loaded one (queued + in-flight),
	// skipping candidates whose breakers are open, instead of blindly
	// walking the Failover ring. Falls back to ring order when no probe
	// answers.
	LoadAwareFailover bool
	// Latency, when non-nil, selects the histogram each completed
	// scheduling operation's response time is observed into — typically a
	// per-VO latency histogram keyed off the job's owner, feeding the SLO
	// plane. Traced operations attach their trace ID as a bucket exemplar
	// (see tsdb.Histogram.ObserveTrace), so a latency spike resolves to
	// the exact span tree that caused it. Returning nil skips the job.
	Latency func(j *grid.Job) *tsdb.Histogram
}

// DPRef names one decision point a client can bind to.
type DPRef struct {
	Name string
	Node string
	Addr string
}

// randSource is the slice-index randomness the client needs; *rand.Rand
// satisfies it.
type randSource interface {
	Intn(n int) int
}

// Decision describes how one job got its site.
type Decision struct {
	JobID string
	Site  string
	// Handled reports whether the decision point answered in time (the
	// paper's handled-by-GRUBER vs not-handled split).
	Handled bool
	// Response is the scheduling operation's total response time as the
	// client experienced it.
	Response time.Duration
	// Err carries the failure when no site could be chosen at all.
	Err error
	// At is when the decision completed.
	At time.Time
	// TraceID identifies the request's trace when the client is traced
	// (zero otherwise) — the join key between DiPerF's per-operation
	// records and the span tree.
	TraceID uint64
}

// Client is the submission-host side of DI-GRUBER: query the assigned
// decision point, run the site selector, report the dispatch, and fall
// back to USLA-blind random selection on timeout.
type Client struct {
	cfg      ClientConfig
	selector gruber.Selector
	clock    vtime.Clock

	mu     sync.Mutex
	rpc    *wire.Client
	closed bool
	// retiring maps connections replaced by Rebind, still draining
	// in-flight calls, to the channel that cancels their deferred close.
	retiring map[*wire.Client]chan struct{}
	// consecFails counts consecutive failed decision-point interactions;
	// failoverIdx walks the Failover ring.
	consecFails int
	failoverIdx int
	// breakers holds one circuit breaker per decision-point address.
	// Keyed by address rather than hung off the wire client so breaker
	// state survives rebinds: a client that failed away and later
	// returns to a recovered point resumes at that point's half-open
	// probe, not a blank closed breaker. Nil until the first use; empty
	// forever when ClientConfig.Breaker is disabled.
	breakers map[string]*wire.Breaker
}

// connAndBreaker returns the current RPC client together with the
// breaker guarding the current binding, consistently under one lock so
// a concurrent Rebind cannot pair one binding's connection with
// another's breaker.
func (c *Client) connAndBreaker() (*wire.Client, *wire.Breaker) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rpc, c.breakerLocked(c.cfg.DPAddr)
}

// breakerLocked returns (lazily creating) the breaker for addr, or nil
// when breaking is disabled. Caller holds c.mu.
func (c *Client) breakerLocked(addr string) *wire.Breaker {
	if c.cfg.Breaker.Threshold <= 0 {
		return nil
	}
	if b := c.breakers[addr]; b != nil {
		return b
	}
	bc := c.cfg.Breaker
	if bc.Clock == nil {
		bc.Clock = c.cfg.Clock
	}
	b := wire.NewBreaker(bc)
	if c.breakers == nil {
		c.breakers = make(map[string]*wire.Breaker)
	}
	c.breakers[addr] = b
	return b
}

// newWireClient builds the RPC client for one decision-point binding,
// carrying the retry policy, deadline propagation and shared metrics.
// Used at construction and by every failover/provisioner rebind.
func (c *Client) newWireClient(serverNode, addr string) *wire.Client {
	return wire.NewClient(wire.ClientConfig{
		Node:              c.cfg.Node,
		ServerNode:        serverNode,
		Addr:              addr,
		Transport:         c.cfg.Transport,
		Network:           c.cfg.Network,
		Clock:             c.cfg.Clock,
		Tracer:            c.cfg.Tracer,
		Metrics:           c.cfg.WireMetrics,
		Retry:             c.cfg.Retry,
		PropagateDeadline: c.cfg.PropagateDeadline,
	})
}

// errBreakerOpen is the locally-synthesized failure for a call the
// circuit breaker rejected without touching the wire. It wraps
// ErrOverloaded so failover accounting classifies it as the overload it
// stands in for; it must never be fed back into Breaker.Record (the
// breaker only eats real wire outcomes).
var errBreakerOpen = fmt.Errorf("digruber: circuit breaker open: %w", wire.ErrOverloaded)

// NewClient builds a client from its config.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Name == "" || cfg.DPAddr == "" {
		return nil, fmt.Errorf("digruber: client needs Name and DPAddr")
	}
	if cfg.Transport == nil || cfg.Clock == nil {
		return nil, fmt.Errorf("digruber: client %s needs Transport and Clock", cfg.Name)
	}
	if cfg.Node == "" {
		cfg.Node = cfg.Name
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.RNG == nil {
		cfg.RNG = netsim.Stream(1, "digruber.client/"+cfg.Name)
	}
	sel := cfg.Selector
	if sel == nil {
		sel = gruber.USLAAware{}
	}
	c := &Client{
		cfg:      cfg,
		selector: sel,
		clock:    cfg.Clock,
	}
	c.rpc = c.newWireClient(cfg.DPNode, cfg.DPAddr)
	return c, nil
}

// DPName returns the currently-assigned decision point's name.
func (c *Client) DPName() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg.DPName
}

// Schedule runs the full scheduling interaction for one job and returns
// the decision. It never blocks longer than roughly the configured
// timeout: on expiry the fallback picks a random site immediately.
func (c *Client) Schedule(j *grid.Job) Decision {
	start := c.clock.Now()
	dec := Decision{JobID: string(j.ID)}

	// The root span opens at the same instant the response-time clock
	// starts and closes with the same Now() that stamps the decision, so
	// its duration is exactly dec.Response.
	root := c.cfg.Tracer.StartTraceAt(trace.PhaseSchedule, start)
	root.SetNote(string(j.ID))
	dec.TraceID = root.Context().Trace

	if c.cfg.SingleCall {
		return c.scheduleSingleCall(j, start, dec, root)
	}

	queryOnce := func(timeout time.Duration) (QueryReply, *wire.Client, *wire.Breaker, error) {
		rpc, br := c.connAndBreaker()
		qs := c.cfg.Tracer.StartSpan(root.Context(), trace.PhaseQuery)
		defer qs.End()
		if !br.Allow() {
			// Open breaker: fail locally and fall back immediately, instead
			// of spending a timeout against a destination known to be down
			// or drowning. Still counts toward failover.
			return QueryReply{}, rpc, br, errBreakerOpen
		}
		reply, err := wire.CallCtx[QueryArgs, QueryReply](rpc, qs.Context(), MethodQuery,
			QueryArgs{Owner: j.Owner.String(), CPUs: j.CPUs}, timeout)
		br.Record(err)
		return reply, rpc, br, err
	}
	reply, rpc, br, err := queryOnce(c.cfg.Timeout)
	if errors.Is(err, wire.ErrDraining) && c.failoverNow() {
		// The bound point is retiring. Nothing was processed, so the
		// query is safe to re-issue — once, against the new binding, on
		// the remaining budget — instead of burning this job on random
		// fallback while healthy peers sit idle.
		reply, rpc, br, err = queryOnce(c.remaining(start))
	}
	c.noteOutcome(err)
	if err != nil {
		// Graceful degradation: random site, no USLAs, not handled.
		fs := c.cfg.Tracer.StartSpan(root.Context(), trace.PhaseFallback)
		dec.Site, dec.Err = c.fallback()
		fs.End()
		dec.Handled = false
		return c.finish(j, dec, start, root)
	}

	sel := c.cfg.Tracer.StartSpan(root.Context(), trace.PhaseSelect)
	site, ok := c.selector.Select(reply.Loads, j.CPUs)
	if !ok {
		// The decision point answered but no site qualifies under USLAs;
		// degrade to random among the reported sites (still counts as
		// handled — the broker's information was used).
		site, ok = pickAnyFree(reply.Loads, j.CPUs, c.cfg.RNG)
	}
	replyLoads.Put(reply.Loads) // site is a string of its own; the loads are done with
	sel.End()
	if !ok {
		fs := c.cfg.Tracer.StartSpan(root.Context(), trace.PhaseFallback)
		dec.Site, dec.Err = c.fallback()
		fs.End()
		dec.Handled = true
		return c.finish(j, dec, start, root)
	}

	// Second round trip: inform the decision point of the selection so
	// its view (and, via exchange, its peers') reflects the dispatch.
	report := ReportArgs{Dispatch: gruber.Dispatch{
		JobID:   string(j.ID),
		Site:    site,
		Owner:   j.Owner.String(),
		CPUs:    j.CPUs,
		Runtime: j.Runtime,
		At:      c.clock.Now(),
	}}
	rs := c.cfg.Tracer.StartSpan(root.Context(), trace.PhaseReport)
	_, err = wire.CallCtx[ReportArgs, ReportReply](rpc, rs.Context(), MethodReport, report, c.remaining(start))
	rs.End()
	br.Record(err)
	if err != nil {
		// The selection stands; only the bookkeeping was lost.
		dec.Handled = false
	} else {
		dec.Handled = true
	}
	dec.Site = site
	return c.finish(j, dec, start, root)
}

// scheduleSingleCall is the one-round-trip coupling: the decision point
// selects and records in a single interaction.
func (c *Client) scheduleSingleCall(j *grid.Job, start time.Time, dec Decision, root *trace.Span) Decision {
	callOnce := func(timeout time.Duration) (ScheduleReply, error) {
		rpc, br := c.connAndBreaker()
		qs := c.cfg.Tracer.StartSpan(root.Context(), trace.PhaseQuery)
		defer qs.End()
		if !br.Allow() {
			return ScheduleReply{}, errBreakerOpen
		}
		reply, err := wire.CallCtx[ScheduleArgs, ScheduleReply](rpc, qs.Context(), MethodSchedule, ScheduleArgs{
			JobID:   string(j.ID),
			Owner:   j.Owner.String(),
			CPUs:    j.CPUs,
			Runtime: j.Runtime,
		}, timeout)
		br.Record(err)
		return reply, err
	}
	reply, err := callOnce(c.cfg.Timeout)
	if errors.Is(err, wire.ErrDraining) && c.failoverNow() {
		// Retiring point: re-issue once on the new binding (see Schedule).
		reply, err = callOnce(c.remaining(start))
	}
	c.noteOutcome(err)
	switch {
	case err != nil:
		fs := c.cfg.Tracer.StartSpan(root.Context(), trace.PhaseFallback)
		dec.Site, dec.Err = c.fallback()
		fs.End()
		dec.Handled = false
	case !reply.OK:
		// The broker answered but nothing qualified; degrade to random.
		fs := c.cfg.Tracer.StartSpan(root.Context(), trace.PhaseFallback)
		dec.Site, dec.Err = c.fallback()
		fs.End()
		dec.Handled = true
	default:
		dec.Site = reply.Site
		dec.Handled = true
	}
	return c.finish(j, dec, start, root)
}

// finish stamps the decision and closes the root span with one shared
// clock read, keeping dec.Response and the root span duration equal. It
// also feeds the Latency hook: the observed response time carries the
// decision's trace ID as a histogram exemplar, linking the metrics
// plane's worst samples back to their span trees.
func (c *Client) finish(j *grid.Job, dec Decision, start time.Time, root *trace.Span) Decision {
	now := c.clock.Now()
	dec.Response = now.Sub(start)
	dec.At = now
	root.EndAt(now)
	if c.cfg.Latency != nil {
		c.cfg.Latency(j).ObserveTrace(dec.Response.Seconds(), dec.TraceID, now)
	}
	return dec
}

// remaining computes the budget left for the report call, with a small
// floor so a slow query doesn't zero it out entirely.
func (c *Client) remaining(start time.Time) time.Duration {
	rem := c.cfg.Timeout - c.clock.Since(start)
	if min := c.cfg.Timeout / 10; rem < min {
		rem = min
	}
	return rem
}

func (c *Client) fallback() (string, error) {
	if len(c.cfg.FallbackSites) == 0 {
		return "", fmt.Errorf("digruber: client %s has no fallback sites", c.cfg.Name)
	}
	return c.cfg.FallbackSites[c.cfg.RNG.Intn(len(c.cfg.FallbackSites))], nil
}

func pickAnyFree(loads []gruber.SiteLoad, cpus int, rng randSource) (string, bool) {
	free := make([]string, 0, len(loads))
	for _, l := range loads {
		if l.EstFreeCPUs >= cpus {
			free = append(free, l.Name)
		}
	}
	if len(free) == 0 {
		return "", false
	}
	return free[rng.Intn(len(free))], true
}

// Rebind switches the client to a different decision point — used by
// the Controller when it rebalances load after deploying a new point,
// and by the failover logic when the bound point looks dead. In-flight
// calls on the old connection run to completion; subsequent Schedule
// calls go to the new point. Rebinding a closed client is a no-op: Close
// is terminal.
func (c *Client) Rebind(dpName, dpNode, addr string) {
	c.mu.Lock()
	if c.closed || (c.cfg.DPAddr == addr && c.cfg.DPName == dpName) {
		c.mu.Unlock()
		return
	}
	old := c.rpc
	c.cfg.DPName = dpName
	c.cfg.DPNode = dpNode
	c.cfg.DPAddr = addr
	c.consecFails = 0
	c.rpc = c.newWireClient(dpNode, addr)
	// Close the old connection in the background once its in-flight
	// calls have had a chance to finish — unless Close arrives first, in
	// which case the stop channel fires and the close happens right away
	// instead of a sleeper goroutine outliving the client.
	stop := make(chan struct{})
	if c.retiring == nil {
		c.retiring = make(map[*wire.Client]chan struct{})
	}
	c.retiring[old] = stop
	grace := c.cfg.Timeout
	c.mu.Unlock()
	go func() {
		select {
		case <-c.clock.After(grace):
		case <-stop:
		}
		old.Close()
		c.mu.Lock()
		delete(c.retiring, old)
		c.mu.Unlock()
	}()
}

// failoverThreshold is the consecutive-failure count that triggers a
// failover rebind.
const failoverThreshold = 3

// noteOutcome updates failover accounting after one interaction with the
// bound decision point. After failoverThreshold consecutive failures
// it rebinds to the next Failover entry that differs from the current
// binding; random per-job fallback still covers the requests in between.
// With LoadAwareFailover set the ring choice is only the default: the
// client Status-probes every distinct candidate and rebinds to the
// least-loaded live one instead.
func (c *Client) noteOutcome(err error) {
	c.mu.Lock()
	if err == nil {
		c.consecFails = 0
		c.mu.Unlock()
		return
	}
	c.consecFails++
	if len(c.cfg.Failover) == 0 || c.consecFails < failoverThreshold {
		c.mu.Unlock()
		return
	}
	next, candidates, found := c.pickFailoverLocked()
	c.mu.Unlock()
	if !found {
		return
	}
	c.rebindFailover(next, candidates)
}

// pickFailoverLocked chooses where a failover rebind should go. Caller
// holds c.mu.
//
// Ring order, exactly as before load awareness existed: advance
// failoverIdx past the chosen entry so successive failovers cycle. The
// candidates slice (load-aware mode only) holds the distinct non-current
// entries in list order for the Status probe; the window is capped:
// failover happens while the client is already failing jobs, and probing
// a long chain serially against a saturated fleet would cost up to a
// probe timeout per entry.
func (c *Client) pickFailoverLocked() (next DPRef, candidates []DPRef, found bool) {
	for i := 0; i < len(c.cfg.Failover); i++ {
		ref := c.cfg.Failover[c.failoverIdx%len(c.cfg.Failover)]
		c.failoverIdx++
		if ref.Addr != c.cfg.DPAddr || ref.Name != c.cfg.DPName {
			next, found = ref, true
			break
		}
	}
	if found && c.cfg.LoadAwareFailover {
		seen := make(map[DPRef]bool, len(c.cfg.Failover))
		for _, ref := range c.cfg.Failover {
			if (ref.Addr != c.cfg.DPAddr || ref.Name != c.cfg.DPName) && !seen[ref] {
				seen[ref] = true
				candidates = append(candidates, ref)
				if len(candidates) == maxLoadProbes {
					break
				}
			}
		}
	}
	return next, candidates, found
}

// rebindFailover completes a failover: load-probe the candidates when
// there is a real choice, then rebind.
func (c *Client) rebindFailover(next DPRef, candidates []DPRef) {
	if len(candidates) > 1 {
		if best, ok := c.leastLoaded(candidates); ok {
			next = best
		}
	}
	c.Rebind(next.Name, next.Node, next.Addr)
}

// failoverNow rebinds away from the current decision point immediately,
// bypassing the consecutive-failure threshold — the reaction to a
// draining refusal, where waiting for more failures would only collect
// more refusals from a point that already said it is leaving. Reports
// whether a rebind target existed.
func (c *Client) failoverNow() bool {
	c.mu.Lock()
	if c.closed || len(c.cfg.Failover) == 0 {
		c.mu.Unlock()
		return false
	}
	next, candidates, found := c.pickFailoverLocked()
	c.mu.Unlock()
	if !found {
		return false
	}
	c.rebindFailover(next, candidates)
	return true
}

// maxLoadProbes bounds how many failover candidates a load-aware rebind
// will Status-probe, keeping the worst case (every probe timing out) a
// small multiple of probeTimeout even with a long failover chain.
const maxLoadProbes = 4

// probeTimeout bounds one load probe; failover is the moment the client
// is already failing jobs, so probes stay much cheaper than a full
// request timeout.
func (c *Client) probeTimeout() time.Duration {
	if t := c.cfg.Timeout / 4; t > 0 {
		return t
	}
	return time.Second
}

// leastLoaded Status-probes the failover candidates and returns the one
// with the smallest queued + in-flight backlog. Candidates whose
// breakers are open are skipped without a probe (known bad); candidates
// that do not answer are skipped and their breaker fed the failure.
// Ties keep the earliest candidate in list order, so the choice is
// deterministic. ok is false when nothing answered — the caller then
// keeps the ring-order choice.
func (c *Client) leastLoaded(candidates []DPRef) (best DPRef, ok bool) {
	var bestLoad int64
	for _, ref := range candidates {
		c.mu.Lock()
		br := c.breakerLocked(ref.Addr)
		c.mu.Unlock()
		if br.State() == wire.BreakerOpen {
			continue
		}
		// A short-lived bare connection: no retries (a dead candidate
		// should cost one fast failure) and no fleet metrics (probes are
		// control-plane traffic, not scheduling calls).
		probe := wire.NewClient(wire.ClientConfig{
			Node:       c.cfg.Node,
			ServerNode: ref.Node,
			Addr:       ref.Addr,
			Transport:  c.cfg.Transport,
			Network:    c.cfg.Network,
			Clock:      c.cfg.Clock,
		})
		st, err := wire.Call[StatusArgs, StatusReply](probe, MethodStatus, StatusArgs{}, c.probeTimeout())
		probe.Close()
		if err != nil {
			br.Record(err)
			continue
		}
		if st.State == StateDraining {
			// Retiring: it would refuse the very work we are moving. Not a
			// breaker-worthy failure — the point is healthy, just leaving.
			continue
		}
		load := int64(st.Queued) + st.InFlight
		if !ok || load < bestLoad {
			best, bestLoad, ok = ref, load, true
		}
	}
	return best, ok
}

// Close releases the client's connections (the live one and any still
// draining after a Rebind). Close is terminal and idempotent.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	rpc := c.rpc
	stops := make([]chan struct{}, 0, len(c.retiring))
	//lint:allow mapiter -- teardown: every stop channel is closed; close order is immaterial
	for _, stop := range c.retiring {
		stops = append(stops, stop)
	}
	c.mu.Unlock()
	for _, stop := range stops {
		close(stop)
	}
	rpc.Close()
}

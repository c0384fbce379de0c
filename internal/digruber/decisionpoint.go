package digruber

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"digruber/internal/gossip"
	"digruber/internal/gruber"
	"digruber/internal/netsim"
	"digruber/internal/trace"
	"digruber/internal/tsdb"
	"digruber/internal/usla"
	"digruber/internal/vtime"
	"digruber/internal/wire"
)

// Config wires one decision point.
type Config struct {
	// Name identifies the decision point (dispatch Origin, status reports).
	Name string
	// Node is the emulated network node the decision point runs on.
	Node string
	// Addr is the transport address to listen on.
	Addr string
	// Transport and Network define the emulated wire.
	Transport wire.Transport
	Network   *netsim.Network
	Clock     vtime.Clock
	// Profile is the web-service stack emulation (GT3/GT4).
	Profile wire.StackProfile
	// Policies is the local USLA knowledge.
	Policies *usla.PolicySet
	// ExchangeInterval is the peer synchronization period (the paper's
	// default is three minutes).
	ExchangeInterval time.Duration
	// Strategy selects what is disseminated.
	Strategy DisseminationStrategy
	// Gossip tunes the Gossip strategy (fanout, view cap, batch bound,
	// sampling seed); ignored under the other strategies.
	Gossip GossipConfig
	// PeerTimeout bounds each peer exchange call.
	PeerTimeout time.Duration
	// MeshLane reserves this many dedicated service-stack workers for
	// mesh and monitoring RPCs (Exchange, Status, Snapshot), so a
	// client-saturated decision point keeps converging its view and
	// stays observable. 0 disables the lane (all methods share the
	// container's worker pool, as before).
	MeshLane int
	// Tracer, when non-nil, records this decision point's server-side,
	// engine and mesh-exchange spans. Nil disables tracing at zero cost.
	Tracer *trace.Tracer
	// Metrics, when non-nil, receives this decision point's instruments
	// and gauges under dp/<Name>/ (see metrics.go). Nil disables
	// metrics at zero cost, exactly like Tracer.
	Metrics *tsdb.Registry
	// Durability, when non-nil, gives the decision point a write-ahead
	// log and checkpoint store (see durability.go): dispatches are
	// synced to the store before they are acked, and Start recovers the
	// store before serving. Nil disables durability at zero cost.
	Durability *DurabilityConfig
}

func (c *Config) setDefaults() error {
	if c.Name == "" || c.Addr == "" {
		return fmt.Errorf("digruber: decision point needs Name and Addr")
	}
	if c.Transport == nil || c.Clock == nil {
		return fmt.Errorf("digruber: decision point %s needs Transport and Clock", c.Name)
	}
	if c.Node == "" {
		c.Node = c.Name
	}
	if c.Policies == nil {
		c.Policies = usla.NewPolicySet()
	}
	if c.ExchangeInterval <= 0 {
		c.ExchangeInterval = 3 * time.Minute
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 30 * time.Second
	}
	c.Gossip.setDefaults()
	return nil
}

// DecisionPoint is one DI-GRUBER broker: a GRUBER engine served over the
// emulated toolkit stack, plus the mesh synchronization machinery.
type DecisionPoint struct {
	cfg      Config
	engine   *gruber.Engine
	server   *wire.Server
	listener wire.Listener
	detector *SaturationDetector
	metrics  *dpMetrics
	// alertSource, when set, supplies the current SLO alert summary for
	// Status replies (see SetAlertSource).
	alertSource func() []AlertSummary
	// dur is the durability state (nil when Config.Durability is nil).
	dur *durability

	// reportsClosed is set once a drain has settled, before its final
	// flush: from then on Report is refused (ErrDraining), because a
	// report acked after the flush would miss it. Atomic, not under mu:
	// Report is on the two-call hot path.
	reportsClosed atomic.Bool
	// resyncOwed is set while the point may have lost records of its own
	// that peers hold (a crash without a store, or after a refused
	// commit, or a recovery that truncated its log) and no peer has
	// answered a resync yet: a record
	// stamped now could reuse a sequence number peers already hold for a
	// different job. Schedule and Report refuse (ErrDraining) until a
	// resync gets an answer or no peer is left. Start tries one, and
	// every round retries; a NoExchange point never owes one, since no
	// peer takes its records.
	resyncOwed atomic.Bool

	mu sync.Mutex
	// peers is the membership: every decision point this one exchanges
	// with, by name. The Gossip strategy samples it (gossip.Active,
	// gossip.Sample); the flood contacts all of it.
	peers     map[string]*peerLink
	started   bool
	draining  bool
	ticker    vtime.Ticker
	done      chan struct{}
	serveDone chan struct{}
	rounds    int // exchange (or gossip) rounds completed
	// gossipRound numbers gossip rounds monotonically; it seeds each
	// round's deterministic peer draw and is never reset (a replayed run
	// counts the same rounds, so it draws the same peers).
	gossipRound uint64
	// flushes numbers the drains' final flushes; see peerLink.answered.
	flushes uint64
	// Gossip round accounting (see metrics.go gauges).
	gossipPulled     int // records pulled via reply halves
	gossipRelayed    int // third-party records stored (transitive relay)
	gossipDuplicates int // records the version vector already covered
	// removed holds the names RemovePeer took out of the mesh. Gossip
	// hearsay never brings one back; only an explicit AddPeer does.
	removed map[string]bool
}

type peerLink struct {
	name string
	node string
	addr string
	// client is nil while the decision point is stopped (wire.Client.Close
	// is terminal, so Start builds a fresh one).
	client *wire.Client
	// answered is dp.flushes when the peer last answered a call. A
	// drain's flush counts a peer's acknowledgment only once the peer has
	// answered during that flush: one given before a crash is void.
	answered uint64
	// ackVV is what the peer has acknowledged, by origin. Under Gossip
	// it is the peer's last-advertised version vector (gossip digest),
	// replaced whole by each one: the push is diffed against it and
	// compaction takes the per-origin minimum across all links. The
	// flood keeps only its entry for this point, the highest own
	// sequence number the peer has acknowledged, which moves only up;
	// the next flood round resends everything after it. Nil until the
	// first exchange with this peer. A gossip request reads the vector
	// outside dp.mu; only the flood writes into it, and a point floods
	// or gossips, never both.
	ackVV map[string]uint64
	// Health: consecutive exchange failures drive alive → suspect → dead
	// (see state); dead peers are only probed after a growing backoff,
	// so one crashed peer stops costing every round a full PeerTimeout.
	fails        int
	probeBackoff time.Duration
	nextProbe    time.Time
}

// peerState is a peer's health as judged by consecutive exchange outcomes.
type peerState int

const (
	peerAlive peerState = iota
	peerSuspect
	peerDead
)

// String names the state for status reports.
func (s peerState) String() string {
	switch s {
	case peerAlive:
		return "alive"
	case peerSuspect:
		return "suspect"
	default:
		return "dead"
	}
}

// deadAfterFails is how many consecutive exchange failures demote a peer
// from suspect to dead.
const deadAfterFails = 3

// state reads the peer's health off its consecutive failures: alive at
// none, suspect below deadAfterFails, dead from then on. Caller holds
// dp.mu.
func (l *peerLink) state() peerState {
	switch {
	case l.fails == 0:
		return peerAlive
	case l.fails < deadAfterFails:
		return peerSuspect
	default:
		return peerDead
	}
}

// markAliveLocked resets a peer's health after any successful contact.
// Caller holds dp.mu.
func (l *peerLink) markAliveLocked() {
	l.fails = 0
	l.probeBackoff = 0
	l.nextProbe = time.Time{}
}

// markFailedLocked records one failed exchange. After deadAfterFails
// consecutive failures the peer is dead and further exchanges to it are
// suppressed until nextProbe, with the probe interval doubling (capped at
// 8x the exchange interval) while it stays dead. Caller holds dp.mu.
func (l *peerLink) markFailedLocked(now time.Time, interval time.Duration) {
	l.fails++
	if l.fails < deadAfterFails {
		return
	}
	if l.probeBackoff <= 0 {
		l.probeBackoff = 2 * interval
	} else {
		l.probeBackoff *= 2
		if max := 8 * interval; l.probeBackoff > max {
			l.probeBackoff = max
		}
	}
	l.nextProbe = now.Add(l.probeBackoff)
}

// New builds a decision point (not yet listening).
func New(cfg Config) (*DecisionPoint, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	dp := &DecisionPoint{
		cfg:      cfg,
		engine:   gruber.NewEngine(cfg.Name, cfg.Policies, cfg.Clock),
		detector: NewSaturationDetector(cfg.Profile.Workers(), cfg.Clock),
		peers:    make(map[string]*peerLink),
	}
	if cfg.Durability != nil {
		if cfg.Durability.Store == nil {
			return nil, fmt.Errorf("digruber: decision point %s: Durability needs a Store", cfg.Name)
		}
		dp.dur = newDurability(cfg.Durability)
		dp.engine.SetAppender(dp.dur.commits.enqueue)
	}
	dp.server = dp.newServer()
	dp.registerMetrics(cfg.Metrics)
	dp.registerHandlers()
	return dp, nil
}

// meshLaneQueue bounds the reserved lane's waiting requests: mesh and
// monitoring traffic is low-rate by design, so a deep backlog would only
// mean the lane is undersized.
const meshLaneQueue = 16

// newServer builds the decision point's wire server, applying the
// tracer and the reserved mesh lane. Used at construction and on every
// restart (wire servers are single-use).
func (dp *DecisionPoint) newServer() *wire.Server {
	s := wire.NewServer(dp.cfg.Node, dp.cfg.Profile, dp.cfg.Clock)
	s.SetTracer(dp.cfg.Tracer)
	if dp.cfg.MeshLane > 0 {
		s.ReserveLane(dp.cfg.MeshLane, meshLaneQueue, MethodExchange, MethodGossip, MethodStatus, MethodSnapshot)
	}
	return s
}

// Name returns the decision point's identity.
func (dp *DecisionPoint) Name() string { return dp.cfg.Name }

// Addr returns the address the decision point listens on.
func (dp *DecisionPoint) Addr() string { return dp.cfg.Addr }

// Engine exposes the underlying GRUBER engine (for wiring monitors and
// for white-box assertions in tests).
func (dp *DecisionPoint) Engine() *gruber.Engine { return dp.engine }

// Detector exposes the saturation detector.
func (dp *DecisionPoint) Detector() *SaturationDetector { return dp.detector }

func (dp *DecisionPoint) registerHandlers() {
	wire.HandleCtx(dp.server, MethodQuery, func(ctx wire.Ctx, a QueryArgs) (QueryReply, error) {
		if dp.isDraining() {
			// New scheduling work is refused while retiring; the refusal is
			// cheap and unprocessed, so the client fails over and re-issues
			// elsewhere. Reports (the second half of an interaction already
			// in flight) and mesh traffic stay accepted.
			return QueryReply{}, wire.ErrDraining
		}
		dp.detector.ObserveArrival()
		owner, err := usla.ParsePath(a.Owner)
		if err != nil {
			return QueryReply{}, err
		}
		if a.CPUs <= 0 {
			return QueryReply{}, fmt.Errorf("digruber: query with %d CPUs", a.CPUs)
		}
		return lentReply(dp.siteLoads(ctx.Span, replyLoads.Take(0), owner, a.CPUs)), nil
	})
	wire.HandleCtx(dp.server, MethodReport, func(ctx wire.Ctx, a ReportArgs) (ReportReply, error) {
		if dp.reportsClosed.Load() || dp.resyncOwed.Load() {
			// A retiring point about to flush (see Drain), or one that
			// does not know its own numbering yet.
			return ReportReply{}, wire.ErrDraining
		}
		// A client's report is checked exactly as Schedule checks its own
		// input: folded unchecked, a malformed owner would occupy CPUs but
		// count against no VO's USLA, and negative CPUs would raise the
		// site's free estimate. Records from peers (MergeRemote,
		// MergeGossip, ImportSnapshot) are not re-checked: they passed this
		// gate at the point that brokered them, and the engine keeps its
		// fold-as-given semantics for them (parity.golden pins it).
		if _, err := checkJob("report", a.Dispatch.Owner, a.Dispatch.CPUs, a.Dispatch.Runtime); err != nil {
			return ReportReply{}, err
		}
		if err := dp.recordDispatch(ctx.Span, a.Dispatch); err != nil {
			return ReportReply{}, err
		}
		return ReportReply{OK: true}, nil
	})
	wire.HandleCtx(dp.server, MethodExchange, func(ctx wire.Ctx, a ExchangeArgs) (ExchangeReply, error) {
		// Hearing from a peer proves it is up — this is how a restarted
		// decision point's first outbound exchange revives its link at
		// every peer without waiting out their probe backoff.
		dp.markPeerAlive(a.From)
		sp := dp.cfg.Tracer.StartSpan(ctx.Span, trace.PhaseEngineMerge)
		dp.engine.MergeRemote(a.Dispatches)
		sp.End()
		putRecords(a.Dispatches) // the engine copied the records out
		for _, e := range a.USLAs {
			// Under usage-and-USLAs dissemination, remote entries are
			// folded into local policy knowledge.
			if err := dp.cfg.Policies.Add(e); err != nil {
				return ExchangeReply{}, err
			}
		}
		return ExchangeReply{From: dp.cfg.Name}, nil
	})
	wire.HandleCtx(dp.server, MethodGossip, dp.handleGossip)
	wire.Handle(dp.server, MethodStatus, func(a StatusArgs) (StatusReply, error) {
		st := dp.Status()
		if a.WithMetrics {
			st.Metrics = dp.MetricsSnapshot()
		}
		return st, nil
	})
	wire.Handle(dp.server, MethodSnapshot, func(a SnapshotArgs) (SnapshotReply, error) {
		dp.markPeerAlive(a.From)
		// A requester that recovered part of its state from a durable
		// store sends its version vector and is shipped only what it
		// lacks; a vector-less request (non-durable peer, total loss)
		// covers nothing and gets the full view.
		return SnapshotReply{
			From:       dp.cfg.Name,
			Dispatches: dp.engine.ExportSnapshotSince(gossip.Vector(a.Vector)),
		}, nil
	})
	wire.Handle(dp.server, MethodProposeAgreement, func(a ProposeArgs) (ProposeReply, error) {
		agreement, err := usla.ParseAgreementXML(a.AgreementXML)
		if err != nil {
			return ProposeReply{}, err
		}
		entries, err := agreement.Entries(dp.cfg.Clock.Now())
		if err != nil {
			return ProposeReply{}, err
		}
		for _, e := range entries {
			if err := dp.cfg.Policies.Add(e); err != nil {
				return ProposeReply{}, err
			}
		}
		var warnings []string
		for _, verr := range dp.cfg.Policies.Validate() {
			warnings = append(warnings, verr.Error())
		}
		return ProposeReply{EntriesAdded: len(entries), Warnings: warnings}, nil
	})
	wire.Handle(dp.server, MethodPublishedAgreements, func(a PublishedArgs) (PublishedReply, error) {
		entries := dp.cfg.Policies.Entries()
		if a.Provider != "" {
			filtered := entries[:0]
			for _, e := range entries {
				if e.Provider == a.Provider {
					filtered = append(filtered, e)
				}
			}
			entries = filtered
		}
		var reply PublishedReply
		for _, agreement := range usla.FromEntries(entries) {
			data, err := agreement.XML()
			if err != nil {
				return PublishedReply{}, err
			}
			reply.AgreementsXML = append(reply.AgreementsXML, data)
		}
		return reply, nil
	})
	wire.HandleCtx(dp.server, MethodSchedule, func(ctx wire.Ctx, a ScheduleArgs) (ScheduleReply, error) {
		if dp.isDraining() || dp.resyncOwed.Load() {
			return ScheduleReply{}, wire.ErrDraining
		}
		dp.detector.ObserveArrival()
		owner, err := checkJob("schedule", a.Owner, a.CPUs, a.Runtime)
		if err != nil {
			return ScheduleReply{}, err
		}
		loads := dp.siteLoads(ctx.Span, nil, owner, a.CPUs)
		site, ok := (gruber.USLAAware{}).Select(loads, a.CPUs)
		if !ok {
			return ScheduleReply{OK: false}, nil
		}
		err = dp.recordDispatch(ctx.Span, gruber.Dispatch{
			JobID:   a.JobID,
			Site:    site,
			Owner:   a.Owner,
			CPUs:    a.CPUs,
			Runtime: a.Runtime,
			At:      dp.cfg.Clock.Now(),
		})
		if err != nil {
			return ScheduleReply{}, err
		}
		return ScheduleReply{Site: site, OK: true}, nil
	})
}

// checkJob validates what a client says about a job before any of it
// reaches the engine: a parsable owner and positive CPUs and runtime.
func checkJob(op, owner string, cpus int, runtime time.Duration) (usla.Path, error) {
	p, err := usla.ParsePath(owner)
	if err != nil {
		return p, err
	}
	if cpus <= 0 || runtime <= 0 {
		return p, fmt.Errorf("digruber: %s with cpus=%d runtime=%s", op, cpus, runtime)
	}
	return p, nil
}

// siteLoads is Engine.AppendSiteLoads recorded as an engine.select span
// under the request's trace context. The engine itself knows nothing of
// tracing; the decision point opens the engine-phase spans around it.
func (dp *DecisionPoint) siteLoads(ctx trace.SpanContext, dst []gruber.SiteLoad, owner usla.Path, cpus int) []gruber.SiteLoad {
	sp := dp.cfg.Tracer.StartSpan(ctx, trace.PhaseEngineSelect)
	loads := dp.engine.AppendSiteLoads(dst, owner, cpus)
	sp.End()
	return loads
}

// recordDispatch is Engine.RecordDispatch recorded as an engine.record
// span under the request's trace context. An error means the write-ahead
// log refused the record: the request must not be acked, and the error
// is wire.ErrNotDurable, so that the client fails over.
func (dp *DecisionPoint) recordDispatch(ctx trace.SpanContext, d gruber.Dispatch) error {
	sp := dp.cfg.Tracer.StartSpan(ctx, trace.PhaseEngineRecord)
	err := dp.engine.RecordDispatch(d)
	sp.End()
	if err != nil {
		return fmt.Errorf("%w: %s: dispatch %s: %w", wire.ErrNotDurable, dp.cfg.Name, d.JobID, err)
	}
	return nil
}

// markPeerAlive resets the health of the named peer after inbound proof
// of life (an exchange or snapshot request it sent us). Unknown names are
// ignored (clients also carry From-less traffic).
func (dp *DecisionPoint) markPeerAlive(name string) {
	if name == "" {
		return
	}
	dp.mu.Lock()
	defer dp.mu.Unlock()
	if l, ok := dp.peers[name]; ok {
		l.markAliveLocked()
	}
}

// SetAlertSource wires the supplier of the per-VO SLO alert summary
// Status attaches (typically an adapter over slo.Evaluator.Alerts). The
// source must be safe for concurrent calls; nil detaches it. The
// summary rides StatusReply as a trailing extension field, so replies
// stay byte-identical to pre-SLO builds whenever no alert is active.
func (dp *DecisionPoint) SetAlertSource(fn func() []AlertSummary) {
	dp.mu.Lock()
	dp.alertSource = fn
	dp.mu.Unlock()
}

// Status assembles the decision point's self-report.
func (dp *DecisionPoint) Status() StatusReply {
	es := dp.engine.Stats()
	dp.mu.Lock()
	server := dp.server
	alertSource := dp.alertSource
	var state string
	if dp.draining {
		state = StateDraining
	}
	peers := make([]PeerHealth, 0, len(dp.peers))
	//lint:allow mapiter -- collected slice is sorted by name right below; state().String is a pure label
	for _, l := range dp.peers {
		peers = append(peers, PeerHealth{Name: l.name, State: l.state().String()})
	}
	dp.mu.Unlock()
	sort.Slice(peers, func(i, j int) bool { return peers[i].Name < peers[j].Name })
	var ss wire.Stats
	if server != nil {
		ss = server.Stats()
	}
	observed, capacity, saturated := dp.detector.Assess(ss)
	var alerts []AlertSummary
	if alertSource != nil {
		alerts = alertSource()
	}
	return StatusReply{
		Name:             dp.cfg.Name,
		Queries:          es.Queries,
		LocalDispatches:  es.LocalDispatches,
		RemoteDispatches: es.RemoteDispatches,
		Received:         ss.Received,
		Shed:             ss.Shed,
		ConnLost:         ss.ConnLost,
		InFlight:         ss.InFlight,
		Queued:           ss.Queued,
		Saturated:        saturated,
		ObservedRate:     observed,
		CapacityRate:     capacity,
		Peers:            peers,
		Expired:          ss.Expired,
		State:            state,
		Alerts:           alerts,
	}
}

// Connect peers two in-process decision points with each other, each
// under the other's own name, node and address. Like AddPeer it is a
// no-op for a pair already connected.
func Connect(a, b *DecisionPoint) {
	a.AddPeer(b.cfg.Name, b.cfg.Node, b.cfg.Addr)
	b.AddPeer(a.cfg.Name, a.cfg.Node, a.cfg.Addr)
}

// AddPeer registers another decision point in this one's mesh — one
// direction of a link, for a peer known only by address (a broker's
// -peer flag, a redeployed member). In-process fleets use Connect. It
// also lifts an earlier RemovePeer of the name.
func (dp *DecisionPoint) AddPeer(name, node, addr string) {
	dp.addPeer(name, node, addr, true)
}

// addPeer is AddPeer; a gossiped member (explicit false) is ignored when
// RemovePeer took its name out.
func (dp *DecisionPoint) addPeer(name, node, addr string, explicit bool) {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	if name == dp.cfg.Name {
		return
	}
	if explicit {
		delete(dp.removed, name)
	} else if dp.removed[name] {
		return
	}
	if _, exists := dp.peers[name]; exists {
		return
	}
	dp.peers[name] = &peerLink{
		name:   name,
		node:   node,
		addr:   addr,
		client: dp.newPeerClient(node, addr),
	}
}

// RemovePeer deregisters a peer — the symmetric teardown to AddPeer,
// used when a fleet member retires. The link's client closes and its
// health state goes with it, so the departed name never re-enters the
// suspect/probe churn or holds back local-log compaction. An exchange
// already in flight to the removed peer finishes against the detached
// link and is discarded with it. The name stays out, known or not: a
// survivor that has not removed it yet may still gossip it as a member,
// and only an explicit AddPeer brings it back.
func (dp *DecisionPoint) RemovePeer(name string) {
	dp.mu.Lock()
	if dp.removed == nil {
		dp.removed = make(map[string]bool)
	}
	dp.removed[name] = true
	l, ok := dp.peers[name]
	if !ok {
		dp.mu.Unlock()
		return
	}
	delete(dp.peers, name)
	client := l.client
	l.client = nil
	dp.mu.Unlock()
	if client != nil {
		client.Close()
	}
}

// newPeerClient builds the wire client for one peer link.
func (dp *DecisionPoint) newPeerClient(node, addr string) *wire.Client {
	return wire.NewClient(wire.ClientConfig{
		Node:       dp.cfg.Node,
		ServerNode: node,
		Addr:       addr,
		Transport:  dp.cfg.Transport,
		Network:    dp.cfg.Network,
		Clock:      dp.cfg.Clock,
		Tracer:     dp.cfg.Tracer,
	})
}

// Peers lists the registered peer names.
func (dp *DecisionPoint) Peers() []string {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	return dp.peerNamesLocked()
}

// peerNamesLocked returns the registered peer names in sorted order, so
// loops over the peer set visit links deterministically. Callers hold
// dp.mu.
func (dp *DecisionPoint) peerNamesLocked() []string {
	names := make([]string, 0, len(dp.peers))
	for name := range dp.peers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Start begins listening and, unless the strategy is NoExchange, starts
// the periodic exchange loop. Start after Stop brings the decision point
// back: wire servers and clients are single-use (Close is terminal), so a
// restart builds fresh ones on the same name, node and address. A point
// whose recovery owes a resync (see resyncOwed) runs it here, once it
// listens, instead of refusing work until its first round.
func (dp *DecisionPoint) Start() error {
	if err := dp.listen(); err != nil {
		return err
	}
	if dp.resyncOwed.Load() {
		dp.ResyncFromPeers()
	}
	return nil
}

// listen is Start without the resync: recovery, the listener and the
// exchange loop.
func (dp *DecisionPoint) listen() error {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	if dp.started {
		return fmt.Errorf("digruber: decision point %s already started", dp.cfg.Name)
	}
	if dp.server == nil {
		dp.server = dp.newServer()
		dp.registerHandlers()
	}
	for _, name := range dp.peerNamesLocked() {
		if link := dp.peers[name]; link.client == nil {
			link.client = dp.newPeerClient(link.node, link.addr)
		}
	}
	if dp.dur != nil {
		// Recover before the listener opens: the decision point never
		// serves (or gossips) state it has not replayed from the store.
		if err := dp.recoverLocked(); err != nil {
			return err
		}
	}
	l, err := dp.cfg.Transport.Listen(dp.cfg.Addr)
	if err != nil {
		return fmt.Errorf("digruber: %s: %w", dp.cfg.Name, err)
	}
	dp.listener = l
	dp.started = true
	dp.draining = false
	dp.reportsClosed.Store(false)
	if dp.dur != nil {
		dp.dur.commits.start()
	}
	dp.done = make(chan struct{})
	dp.serveDone = make(chan struct{})
	go func(srv *wire.Server, l wire.Listener, served chan struct{}) {
		srv.Serve(l)
		close(served)
	}(dp.server, l, dp.serveDone)
	if dp.cfg.Strategy != NoExchange {
		dp.ticker = dp.cfg.Clock.NewTicker(dp.cfg.ExchangeInterval)
		go dp.exchangeLoop(dp.ticker, dp.done)
	}
	return nil
}

func (dp *DecisionPoint) exchangeLoop(ticker vtime.Ticker, done chan struct{}) {
	for {
		select {
		case <-ticker.C():
			dp.ExchangeNow()
		case <-done:
			return
		}
	}
}

// ExchangeNow performs one synchronization round immediately —
// full-mesh flood or sampled gossip, per the configured strategy —
// returning how many dispatch records were sent. Rounds normally run
// off the interval ticker; tests and reconfiguration logic call this
// directly.
func (dp *DecisionPoint) ExchangeNow() int { return dp.syncNow(false) }

// syncNow runs one synchronization round under the configured strategy.
// force contacts even dead peers whose probe backoff has not elapsed —
// the drain flush's mode: a retiring point must get its last records out
// (or fail trying) every retry, not sit out a probe interval against a
// peer that just healed. Returns the number of records sent.
func (dp *DecisionPoint) syncNow(force bool) int {
	// The round boundary doubles as the durability checkpoint cadence
	// check — deterministic under a Manual clock, unlike a timer.
	defer dp.maybeCheckpoint()
	if dp.resyncOwed.Load() {
		dp.ResyncFromPeers()
	}
	switch dp.cfg.Strategy {
	case NoExchange:
		return 0
	case Gossip:
		return syncRound(dp, force, dp.gossipPart(force))
	default:
		return syncRound(dp, force, roundPart[ExchangeArgs, ExchangeReply]{
			method:  MethodExchange,
			targets: dp.Peers(),
			request: (*DecisionPoint).floodRequest,
			merge:   (*DecisionPoint).floodAck,
			compact: (*DecisionPoint).floodCompact,
		})
	}
}

// roundPart is what a dissemination strategy plugs into the round
// skeleton (syncRound): whom to contact, the request for one link, what
// to do with its reply, and what the round lets the engine forget.
type roundPart[A, R any] struct {
	method string
	// targets names the peers this round contacts, in name order, before
	// the skeleton drops the stopped and the dead.
	targets []string
	// request builds one peer's request from the link's acknowledgment
	// as read under dp.mu: its entry for this point, and the whole vector.
	request func(dp *DecisionPoint, acked uint64, ackVV map[string]uint64) linkRequest[A]
	// merge handles the reply to a successful request, under the
	// per-peer span: fold it into the engine, advance the link's cursors.
	// A reply it refuses leaves both as they were and returns why; the
	// call is then booked as failed.
	merge func(dp *DecisionPoint, ctx trace.SpanContext, l *peerLink, req linkRequest[A], reply R) error
	// mergeInOrder holds every reply until all calls are back and merges
	// them in link-name order — for a strategy whose replies mutate the
	// engine, so that a round's outcome does not depend on reply arrival
	// order. Otherwise each reply is merged (and its span ends) the
	// moment the call returns, and a live trace does not stretch every
	// peer's span to the slowest peer.
	mergeInOrder bool
	// compact drops from the engine's logs what every peer has
	// acknowledged.
	compact func(dp *DecisionPoint)
}

// linkRequest is one peer's request in a round.
type linkRequest[A any] struct {
	args A
	// records counts the dispatch records args carries.
	records int
	// through is the own-log sequence number args brings the peer up to
	// (a flood request; gossip learns what a peer holds from its reply).
	through uint64
}

// linkOutcome is one peer's call in a round, from request to reply.
type linkOutcome[A, R any] struct {
	link  *peerLink
	span  *trace.Span
	req   linkRequest[A]
	reply R
	err   error
}

// syncRound is the round skeleton every dissemination strategy shares.
func syncRound[A, R any](dp *DecisionPoint, force bool, part roundPart[A, R]) int {
	now := dp.cfg.Clock.Now()
	dp.mu.Lock()
	links := make([]*peerLink, 0, len(part.targets))
	for _, name := range part.targets {
		l := dp.peers[name]
		if l == nil || l.client == nil {
			continue // removed or stopped
		}
		if !force && l.state() == peerDead && now.Before(l.nextProbe) {
			continue // dead; not due for a probe yet
		}
		links = append(links, l)
	}
	dp.mu.Unlock()

	round := dp.cfg.Tracer.StartTrace(trace.PhaseMeshRound)
	sent := 0
	// Sized once: the calls below hold pointers into it.
	outcomes := make([]linkOutcome[A, R], 0, len(links))
	var wg sync.WaitGroup
	for _, link := range links {
		dp.mu.Lock()
		client, acked, ackVV := link.client, link.ackVV[dp.cfg.Name], link.ackVV
		dp.mu.Unlock()
		if client == nil {
			continue // Stop raced us
		}
		req := part.request(dp, acked, ackVV)
		sent += req.records
		// The per-peer span (and its ID draw) happens here, in the targets'
		// name order, so a traced round draws its span IDs in a
		// reproducible sequence; only the call itself runs concurrently.
		ex := dp.cfg.Tracer.StartSpan(round.Context(), trace.PhaseMeshExchange)
		ex.SetNote(link.name)
		outcomes = append(outcomes, linkOutcome[A, R]{link: link, span: ex, req: req})
		o := &outcomes[len(outcomes)-1]
		wg.Add(1)
		go func() {
			defer wg.Done()
			o.reply, o.err = wire.CallCtx[A, R](client, o.span.Context(), part.method, o.req.args, dp.cfg.PeerTimeout)
			if !part.mergeInOrder {
				o.settle(dp, part)
			}
		}()
	}
	wg.Wait()
	if part.mergeInOrder {
		for i := range outcomes {
			outcomes[i].settle(dp, part)
		}
	}
	round.End()
	dp.mu.Lock()
	dp.rounds++
	dp.mu.Unlock()
	part.compact(dp)
	return sent
}

// settle finishes one peer's call: merge the reply, end the per-peer
// span, book the peer's health. After a failure the same records go out
// again next round (or next probe): the link's cursors did not move, and
// the receiver's dedup makes retransmission harmless.
func (o *linkOutcome[A, R]) settle(dp *DecisionPoint, part roundPart[A, R]) {
	if o.err == nil {
		o.err = part.merge(dp, o.span.Context(), o.link, o.req, o.reply)
	}
	o.span.End()
	dp.bookOutcome(o.link, o.err)
}

// answeredBy refuses a mesh reply signed by another name than the peer
// asked: whatever answers on a peer's address (a restarted broker on a
// reused port, say) must not settle a resync or acknowledge records in
// that peer's name.
func answeredBy(asked, from string) error {
	if from != asked {
		return fmt.Errorf("digruber: asked peer %s, answered by %q", asked, from)
	}
	return nil
}

// bookOutcome records the result of one outbound call in the peer's
// health: any success revives the link, a failure moves it towards dead.
func (dp *DecisionPoint) bookOutcome(l *peerLink, err error) {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	if err == nil {
		l.markAliveLocked()
		l.answered = dp.flushes
	} else {
		l.markFailedLocked(dp.cfg.Clock.Now(), dp.cfg.ExchangeInterval)
	}
}

// The full-mesh flood's round parts: every peer is sent this engine's
// own dispatches since the cursor that peer last acknowledged.

func (dp *DecisionPoint) floodRequest(acked uint64, _ map[string]uint64) linkRequest[ExchangeArgs] {
	// The engine assigns sequence numbers under its own lock, so the
	// (batch, hi) pair is exact: acknowledging hi never skips a record
	// whose append lost a race with this read.
	batch, hi := dp.engine.LocalDispatchesAfter(acked)
	args := ExchangeArgs{From: dp.cfg.Name, Dispatches: batch}
	if dp.cfg.Strategy == UsageAndUSLAs {
		args.USLAs = dp.cfg.Policies.Entries()
	}
	return linkRequest[ExchangeArgs]{args: args, records: len(batch), through: hi}
}

// floodAck advances the link's acknowledgment past the records the peer
// asked acknowledged; a reply in another name acknowledges nothing and
// books the call failed.
func (dp *DecisionPoint) floodAck(_ trace.SpanContext, l *peerLink, req linkRequest[ExchangeArgs], reply ExchangeReply) error {
	if err := answeredBy(l.name, reply.From); err != nil {
		return err
	}
	dp.mu.Lock()
	if req.through > l.ackVV[dp.cfg.Name] {
		if l.ackVV == nil {
			l.ackVV = make(map[string]uint64, 1)
		}
		l.ackVV[dp.cfg.Name] = req.through
	}
	dp.mu.Unlock()
	return nil
}

// floodCompact bounds the own log: records every peer has acknowledged
// are never needed again. With no peers at all, nobody will ever ask, so
// the whole log can go.
func (dp *DecisionPoint) floodCompact() {
	oldest := ^uint64(0)
	dp.mu.Lock()
	//lint:allow mapiter -- min over values; the result is order-independent
	for _, l := range dp.peers {
		oldest = min(oldest, l.ackVV[dp.cfg.Name])
	}
	dp.mu.Unlock()
	dp.engine.CompactOrigins(map[string]uint64{dp.cfg.Name: oldest})
}

// ExchangeRounds reports completed exchange rounds (for tests).
func (dp *DecisionPoint) ExchangeRounds() int {
	dp.mu.Lock()
	defer dp.mu.Unlock()
	return dp.rounds
}

// Stop shuts the decision point down: the exchange loop exits, the
// server and listener close, peer clients close, and the committer and
// the serve goroutine are awaited so nothing of this incarnation
// outlives the call. Stop is
// idempotent, and Start may be called again afterwards (restart).
func (dp *DecisionPoint) Stop() {
	dp.mu.Lock()
	if !dp.started {
		dp.mu.Unlock()
		return
	}
	dp.started = false
	if dp.ticker != nil {
		dp.ticker.Stop()
		dp.ticker = nil
	}
	close(dp.done)
	server := dp.server
	dp.server = nil
	listener := dp.listener
	dp.listener = nil
	serveDone := dp.serveDone
	clients := make([]*wire.Client, 0, len(dp.peers))
	//lint:allow mapiter -- teardown: every client is closed; close order is immaterial
	for _, p := range dp.peers {
		if p.client != nil {
			clients = append(clients, p.client)
			p.client = nil
		}
	}
	dp.mu.Unlock()

	server.Close()
	if listener != nil {
		listener.Close()
	}
	for _, c := range clients {
		c.Close()
	}
	if dp.dur != nil {
		// Requests still waiting for their commit fail, unacked.
		dp.dur.commits.stop()
	}
	if serveDone != nil {
		<-serveDone
	}
}

// Crash models a broker process dying: the decision point stops serving
// AND loses its dynamic state — the engine's dispatch views, dedup set
// and exchange log, plus the per-peer exchange cursors and health. The
// engine's site baseline survives (static knowledge is re-bootstrapped
// from configuration on restart, per the paper's dissemination model).
// With durability on, the write-ahead store survives the crash (that is
// its whole purpose); the next Start replays it before serving.
func (dp *DecisionPoint) Crash() {
	dp.Stop()
	dp.engine.DropDynamicState()
	if dp.dur == nil || dp.dur.crash() {
		dp.oweResync()
	}
	dp.mu.Lock()
	//lint:allow mapiter -- per-peer state reset with no cross-peer reads; order cannot matter
	for _, l := range dp.peers {
		l.ackVV = nil
		l.markAliveLocked()
	}
	dp.mu.Unlock()
}

// oweResync marks that the point may have lost records of its own that
// peers hold; see resyncOwed.
func (dp *DecisionPoint) oweResync() {
	if dp.cfg.Strategy != NoExchange {
		dp.resyncOwed.Store(true)
	}
}

// Restart brings a stopped or crashed decision point back: it starts
// serving again and then pulls a full state snapshot from the first
// reachable peer, so its view converges immediately instead of waiting
// for dispatch records to drift in over exchange rounds.
func (dp *DecisionPoint) Restart() error {
	if err := dp.listen(); err != nil {
		return err
	}
	dp.ResyncFromPeers()
	return nil
}

// ResyncFromPeers asks peers (in deterministic name order) for a full
// snapshot and imports the first one that answers. It returns the number
// of dispatches imported and the donor's name ("" when no peer answered —
// the decision point then rebuilds gradually from incoming exchanges).
// An answer, or having no peer at all, settles an owed resync. An answer
// signed by another name than the peer asked is no answer: it is booked
// as a failed call on that link, and the next peer is asked.
//
// While a resync is owed, one donor is not enough: records of this
// point's own that the donor lacks may sit at any other peer (a snapshot
// it took earlier), and a record stamped later would reuse their
// numbers. So every other peer that answers is asked too, for the
// point's own records past its log (ownArgs), and the point takes them.
func (dp *DecisionPoint) ResyncFromPeers() (int, string) {
	owed := dp.resyncOwed.Load()
	imported, donor := 0, ""
	peers := dp.Peers()
	for _, name := range peers {
		dp.mu.Lock()
		link := dp.peers[name]
		var client *wire.Client
		if link != nil {
			client = link.client
		}
		dp.mu.Unlock()
		if client == nil {
			continue
		}
		args := SnapshotArgs{From: dp.cfg.Name}
		switch {
		case donor != "":
			args = dp.ownArgs(peers)
		case dp.dur != nil:
			// Advertise what recovery already rebuilt, so the donor ships
			// only the seq-gap instead of the whole view. Non-durable
			// points keep requesting the full snapshot (nil Vector encodes
			// byte-identically to the pre-durability request).
			args.Vector = gossip.Cursors(dp.engine.OriginVector())
		}
		reply, err := wire.Call[SnapshotArgs, SnapshotReply](client, MethodSnapshot, args, dp.cfg.PeerTimeout)
		if err == nil {
			err = answeredBy(name, reply.From)
		}
		dp.bookOutcome(link, err)
		if err != nil {
			continue
		}
		records := reply.Dispatches
		if donor != "" {
			records = dp.ownRecords(records)
		}
		n := dp.engine.ImportSnapshot(records)
		putRecords(reply.Dispatches)
		if dp.dur != nil {
			dp.dur.noteBackfilled(n)
		}
		imported += n
		if donor == "" {
			donor = name
		}
		if !owed {
			break
		}
	}
	if donor != "" || len(peers) == 0 { // an answer, or nobody left to hold records of ours
		dp.resyncOwed.Store(false)
	}
	return imported, donor
}

// ownArgs asks a donor for this point's own records past its log: the
// vector marks every other origin the point knows of as held in full.
// What the donor ships beside them (records of origins the point never
// heard of, records without a sequence number) ownRecords drops.
func (dp *DecisionPoint) ownArgs(peers []string) SnapshotArgs {
	vv := dp.engine.OriginVector()
	//lint:allow mapiter -- each entry is set on its own; Cursors sorts the result
	for origin := range vv {
		if origin != dp.cfg.Name {
			vv[origin] = math.MaxUint64
		}
	}
	for _, name := range peers {
		vv[name] = math.MaxUint64
	}
	return SnapshotArgs{From: dp.cfg.Name, Vector: gossip.Cursors(vv)}
}

// ownRecords returns the records of ds this point stamped, in sequence
// order, so that the own log takes them in turn.
func (dp *DecisionPoint) ownRecords(ds []gruber.Dispatch) []gruber.Dispatch {
	var own []gruber.Dispatch
	for _, d := range ds {
		if d.Origin == dp.cfg.Name && d.Seq > 0 {
			own = append(own, d)
		}
	}
	sort.Slice(own, func(i, j int) bool { return own[i].Seq < own[j].Seq })
	return own
}

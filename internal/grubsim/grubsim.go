// Package grubsim implements GRUB-SIM, the simulator the paper built to
// evaluate its Section 5 enhancements: identifying when DI-GRUBER
// decision points saturate and determining dynamically how many decision
// points a given load requires (Table 3).
//
// GRUB-SIM is a deterministic discrete-event simulation of the brokering
// layer only: decision points are modeled as multi-worker queueing
// stations with DiPerF-calibrated service-time distributions, clients as
// closed-loop request sources with the paper's timeout semantics, and
// the WAN as per-message latency draws. Because no real goroutines or
// wall-clock sleeps are involved, runs are exactly reproducible and fast
// enough to sweep configurations — which is precisely why the paper
// built a simulator instead of re-running PlanetLab deployments.
package grubsim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"time"

	"digruber/internal/netsim"
	"digruber/internal/stats"
)

// Params configures a simulation run.
type Params struct {
	Seed int64

	// ServiceMean and ServiceSigma shape the per-request service time at
	// a decision point (log-normal around ServiceMean).
	ServiceMean  time.Duration
	ServiceSigma float64
	// Workers is each decision point's request-processing parallelism.
	Workers int
	// QueueLimit sheds requests beyond this backlog per decision point.
	QueueLimit int

	// WANLatency is the mean one-way message latency; each draw is
	// log-normal with WANSigma.
	WANLatency time.Duration
	WANSigma   float64

	// Clients is the closed-loop client count; each waits Interarrival
	// between operations and abandons a request after Timeout (falling
	// back to random selection — counted as not handled).
	Clients      int
	Interarrival time.Duration
	Timeout      time.Duration

	// Duration is the simulated span.
	Duration time.Duration

	// InitialDPs is the starting decision point count.
	InitialDPs int

	// Dynamic enables Section 5's automatic provisioning: a monitor
	// samples every MonitorInterval and deploys a new decision point
	// (rebalancing clients) whenever some point's recent mean response
	// exceeds ResponseBound or its queue exceeds QueueThreshold.
	Dynamic         bool
	MonitorInterval time.Duration
	ResponseBound   time.Duration
	QueueThreshold  int
	MaxDPs          int

	// Window buckets the response/throughput curves.
	Window time.Duration
}

func (p *Params) setDefaults() error {
	if p.Clients <= 0 || p.InitialDPs <= 0 || p.Duration <= 0 {
		return fmt.Errorf("grubsim: Clients, InitialDPs and Duration must be positive")
	}
	if p.ServiceMean <= 0 {
		p.ServiceMean = 500 * time.Millisecond
	}
	if p.Workers <= 0 {
		p.Workers = 1
	}
	if p.QueueLimit <= 0 {
		p.QueueLimit = 256
	}
	if p.Interarrival <= 0 {
		p.Interarrival = time.Second
	}
	if p.Timeout <= 0 {
		p.Timeout = 30 * time.Second
	}
	if p.MonitorInterval <= 0 {
		p.MonitorInterval = time.Minute
	}
	if p.ResponseBound <= 0 {
		p.ResponseBound = p.Timeout / 2
	}
	if p.QueueThreshold <= 0 {
		p.QueueThreshold = 3 * p.Workers
	}
	if p.MaxDPs <= 0 {
		p.MaxDPs = 64
	}
	if p.Window <= 0 {
		p.Window = time.Minute
	}
	return nil
}

// Result summarizes a run.
type Result struct {
	// FinalDPs and AddedDPs report the provisioning outcome (Table 3).
	FinalDPs int
	AddedDPs int
	// OverloadEvents counts monitor samples that found an overloaded
	// decision point.
	OverloadEvents int
	// AddTimes are the simulated instants new points were deployed.
	AddTimes []time.Duration

	// Total, Handled, TimedOut, Shed count client operations.
	Total    int
	Handled  int
	TimedOut int
	Shed     int

	// MeanResponse and PeakWindowResponse summarize client-observed
	// response times.
	MeanResponse       time.Duration
	PeakWindowResponse time.Duration
	// Throughput is handled operations per simulated second.
	Throughput float64
	// ResponseCurve and ThroughputCurve are per-window series.
	ResponseCurve   []float64
	ThroughputCurve []float64
	// PerDPHandled reports load balance across the final deployment.
	PerDPHandled []int
}

// event kinds
const (
	evSubmit  = iota // client issues a request (at client side)
	evArrive         // request reaches its decision point
	evServed         // decision point finished processing
	evRespond        // response reaches the client
	evShed           // overload rejection reaches the client
	evTimeout        // client abandons the request
	evMonitor        // provisioning monitor samples the deployment
)

type event struct {
	at   time.Duration
	seq  int64
	kind int
	// client / dp / req identify the affected entities.
	client int
	dp     int
	req    *request
}

type request struct {
	client    int
	dp        int
	submitted time.Duration
	resolved  bool // timeout and response race; first wins
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

type dpState struct {
	busy    int
	queue   []*request
	handled int
	// respWindow accumulates responses since the last monitor sample.
	respWindow stats.Online
}

// sim is one run's mutable state.
type sim struct {
	p      Params
	now    time.Duration
	events eventHeap
	seq    int64

	svcRNG *rand.Rand
	wanRNG *rand.Rand

	dps    []*dpState
	assign []int // client → dp

	res       Result
	respSer   stats.Series
	tputSer   stats.Series
	respTotal time.Duration
	origin    time.Time
	// openLoop disables closed-loop resubmission (trace replay mode).
	openLoop bool
}

// Run executes the simulation.
func Run(p Params) (Result, error) {
	if err := p.setDefaults(); err != nil {
		return Result{}, err
	}
	s := &sim{
		p:      p,
		svcRNG: netsim.Stream(p.Seed, "grubsim.service"),
		wanRNG: netsim.Stream(p.Seed, "grubsim.wan"),
		origin: time.Unix(0, 0).UTC(),
	}
	for i := 0; i < p.InitialDPs; i++ {
		s.dps = append(s.dps, &dpState{})
	}
	s.assign = make([]int, p.Clients)
	for c := range s.assign {
		s.assign[c] = c % len(s.dps)
	}
	// Clients ramp in over the first tenth of the run, mirroring
	// DiPerF's slow participation increase.
	ramp := p.Duration / 10
	for c := 0; c < p.Clients; c++ {
		at := time.Duration(0)
		if p.Clients > 1 {
			at = ramp * time.Duration(c) / time.Duration(p.Clients-1)
		}
		s.schedule(at, evSubmit, c, 0, nil)
	}
	if p.Dynamic {
		s.schedule(p.MonitorInterval, evMonitor, 0, 0, nil)
	}
	s.loop()
	s.finish()
	return s.res, nil
}

func (s *sim) schedule(at time.Duration, kind, client, dp int, req *request) {
	s.seq++
	heap.Push(&s.events, &event{at: at, seq: s.seq, kind: kind, client: client, dp: dp, req: req})
}

func (s *sim) wan() time.Duration {
	if s.p.WANLatency <= 0 {
		return 0
	}
	f := 1.0
	if s.p.WANSigma > 0 {
		f = math.Exp(s.wanRNG.NormFloat64() * s.p.WANSigma)
	}
	return time.Duration(float64(s.p.WANLatency) * f)
}

func (s *sim) service() time.Duration {
	f := 1.0
	if s.p.ServiceSigma > 0 {
		f = math.Exp(s.svcRNG.NormFloat64() * s.p.ServiceSigma)
	}
	return time.Duration(float64(s.p.ServiceMean) * f)
}

func (s *sim) loop() {
	for s.events.Len() > 0 {
		e := heap.Pop(&s.events).(*event)
		if e.at > s.p.Duration {
			return
		}
		s.now = e.at
		switch e.kind {
		case evSubmit:
			s.onSubmit(e.client)
		case evArrive:
			s.onArrive(e.req)
		case evServed:
			s.onServed(e.dp, e.req)
		case evRespond:
			s.onRespond(e.req)
		case evShed:
			s.onShed(e.req)
		case evTimeout:
			s.onTimeout(e.req)
		case evMonitor:
			s.onMonitor()
		}
	}
}

func (s *sim) onSubmit(client int) {
	dp := s.assign[client]
	req := &request{client: client, dp: dp, submitted: s.now}
	s.res.Total++
	s.schedule(s.now+s.wan(), evArrive, client, dp, req)
	s.schedule(s.now+s.p.Timeout, evTimeout, client, dp, req)
}

func (s *sim) onArrive(req *request) {
	dp := s.dps[req.dp]
	if len(dp.queue) >= s.p.QueueLimit {
		// Overload rejection: the client learns quickly (one WAN hop)
		// and falls back to random selection — counted as not handled.
		s.schedule(s.now+s.wan(), evShed, req.client, req.dp, req)
		return
	}
	dp.queue = append(dp.queue, req)
	s.tryStart(req.dp)
}

func (s *sim) tryStart(dpIdx int) {
	dp := s.dps[dpIdx]
	for dp.busy < s.p.Workers && len(dp.queue) > 0 {
		req := dp.queue[0]
		dp.queue = dp.queue[1:]
		dp.busy++
		s.schedule(s.now+s.service(), evServed, req.client, dpIdx, req)
	}
}

func (s *sim) onServed(dpIdx int, req *request) {
	dp := s.dps[dpIdx]
	dp.busy--
	s.tryStart(dpIdx)
	s.schedule(s.now+s.wan(), evRespond, req.client, dpIdx, req)
}

func (s *sim) onRespond(req *request) {
	if req.resolved {
		return // timed out earlier, or synthetic shed echo
	}
	req.resolved = true
	response := s.now - req.submitted
	s.res.Handled++
	s.dps[req.dp].handled++
	s.dps[req.dp].respWindow.Add(response.Seconds())
	s.respTotal += response
	s.respSer.Add(s.origin.Add(s.now), response.Seconds())
	s.tputSer.Add(s.origin.Add(s.now), 1)
	s.resolve(req, true)
}

func (s *sim) onShed(req *request) {
	if req.resolved {
		return
	}
	req.resolved = true
	s.res.Shed++
	response := s.now - req.submitted
	s.respTotal += response
	s.respSer.Add(s.origin.Add(s.now), response.Seconds())
	s.resolve(req, false)
}

func (s *sim) onTimeout(req *request) {
	if req.resolved {
		return
	}
	req.resolved = true
	s.res.TimedOut++
	s.respTotal += s.p.Timeout
	s.respSer.Add(s.origin.Add(s.now), s.p.Timeout.Seconds())
	// The decision point's view of this request keeps being processed
	// (wasted work), but the client has moved on.
	s.resolve(req, false)
}

// resolve schedules the client's next submission (closed-loop mode
// only; trace replays are open-loop).
func (s *sim) resolve(req *request, handled bool) {
	_ = handled
	if s.openLoop {
		return
	}
	s.schedule(s.now+s.p.Interarrival, evSubmit, req.client, 0, nil)
}

// onMonitor is the Section 5 third-party monitor: sample every decision
// point; deploy a new one and rebalance if any is overloaded.
func (s *sim) onMonitor() {
	overloaded := false
	for _, dp := range s.dps {
		meanResp := dp.respWindow.Mean()
		if (dp.respWindow.N() > 0 && meanResp > s.p.ResponseBound.Seconds()) ||
			len(dp.queue) >= s.p.QueueThreshold {
			overloaded = true
		}
		dp.respWindow = stats.Online{}
	}
	if overloaded {
		s.res.OverloadEvents++
		if len(s.dps) < s.p.MaxDPs {
			s.dps = append(s.dps, &dpState{})
			s.res.AddedDPs++
			s.res.AddTimes = append(s.res.AddTimes, s.now)
			// Rebalance: spread clients evenly over the new deployment.
			for c := range s.assign {
				s.assign[c] = c % len(s.dps)
			}
		}
	}
	s.schedule(s.now+s.p.MonitorInterval, evMonitor, 0, 0, nil)
}

func (s *sim) finish() {
	s.res.FinalDPs = len(s.dps)
	if n := s.res.Handled + s.res.TimedOut + s.res.Shed; n > 0 {
		s.res.MeanResponse = s.respTotal / time.Duration(n)
	}
	s.res.Throughput = float64(s.res.Handled) / s.p.Duration.Seconds()
	respBuckets := s.respSer.Bucketize(s.origin, s.p.Window)
	for _, b := range respBuckets {
		s.res.ResponseCurve = append(s.res.ResponseCurve, b.Mean)
		if b.Mean > s.res.PeakWindowResponse.Seconds() {
			s.res.PeakWindowResponse = time.Duration(b.Mean * float64(time.Second))
		}
	}
	for _, b := range s.tputSer.Bucketize(s.origin, s.p.Window) {
		s.res.ThroughputCurve = append(s.res.ThroughputCurve, float64(b.Count)/s.p.Window.Seconds())
	}
	for _, dp := range s.dps {
		s.res.PerDPHandled = append(s.res.PerDPHandled, dp.handled)
	}
}

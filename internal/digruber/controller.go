package digruber

import (
	"fmt"
	"sync"
	"time"

	"digruber/internal/tsdb"
	"digruber/internal/vtime"
)

// Controller is the elastic-fleet control loop — the live realization
// of the dynamic reconfiguration the paper's Section 5 designs but
// leaves to future work ("we do not have a DI-GRUBER implementation for
// such an approach"). It is the section's third-party monitor: it asks
// every serving member for its own saturation verdict (Status) and reads
// the fleet's metrics plane (queue depth, shed/expired rates, offered
// demand, SLO alerts), and:
//
//   - scales UP under sustained pressure: a factory-built decision point
//     is meshed with every fleet member (Connect fan-out),
//     bootstrapped via the Snapshot anti-entropy resync, and handed its
//     share of the client population;
//   - scales DOWN under sustained idleness: the newest member's clients
//     are rebound away, the member Drains (settle, verified final flush,
//     stop — see lifecycle.go), and on success every survivor tears the
//     link down with RemovePeer. A drain that aborts leaves the victim
//     serving and the fleet unchanged.
//
// Hysteresis (consecutive evaluations required) and per-direction
// cooldowns keep the loop from flapping: growth is cheap and reacts
// fast; shrinking pays a drain and waits for proof the load is gone.
type Controller struct {
	cfg   ControllerConfig
	clock vtime.Clock
	reg   *tsdb.Registry

	scaleUps    *tsdb.Counter
	scaleDowns  *tsdb.Counter
	drainAborts *tsdb.Counter

	mu         sync.Mutex
	fleet      []*DecisionPoint
	clients    []*Client
	nextIdx    int
	highStreak int
	lowStreak  int
	nextUp     time.Time // earliest time the next scale-up may fire
	nextDown   time.Time
	ticker     vtime.Ticker
	done       chan struct{} // closed by Stop; nil while not running
	exited     chan struct{} // closed by loop on its way out
	deployLog  []time.Time
	retireLog  []time.Time
}

// DPFactory creates and starts decision point number idx, returning the
// live handle. The factory owns transport/address conventions and must
// seed the new point's engine with the grid's static site knowledge
// before returning (UpdateSites), exactly as a freshly-deployed broker
// would bootstrap from the information service.
type DPFactory func(idx int) (*DecisionPoint, error)

// ControllerConfig wires a Controller.
type ControllerConfig struct {
	Clock vtime.Clock
	// Factory creates and starts decision point number idx on demand.
	Factory DPFactory
	// Metrics is the fleet registry the controller reads its signals
	// from — the same one the decision points publish under dp/<name>/.
	// The registry must be sampled (tsdb.Sampler or manual Sample calls)
	// for the window signals to exist; the members' saturation verdicts
	// are read live and need no sampling.
	Metrics *tsdb.Registry
	// Interval is the evaluation period (default 1 minute).
	Interval time.Duration
	// MinDPs/MaxDPs bound the fleet (defaults 1 and 16).
	MinDPs int
	MaxDPs int
	// ScaleUpAfter/ScaleDownAfter are the hysteresis depths: how many
	// consecutive evaluations the pressure (resp. idle) signal must hold
	// before the controller acts. Defaults 2 and 5 — shrinking demands
	// longer proof because it pays a drain and risks thrash.
	ScaleUpAfter   int
	ScaleDownAfter int
	// UpCooldown/DownCooldown are per-direction refractory periods after
	// any scaling action (defaults 2×Interval and 5×Interval). Both
	// directions cool down after either action, so a scale-up's effect is
	// observed before a scale-down can undo it.
	UpCooldown   time.Duration
	DownCooldown time.Duration
	// DrainTimeout is the budget handed to the victim's Drain on
	// scale-down (default 2 minutes).
	DrainTimeout time.Duration
	// DemandSeries optionally names a cumulative series counting offered
	// requests (e.g. a workload driver's submission counter). Its window
	// rate divided by the serving fleet size joins the signals as
	// demand-per-member — the classic replica-autoscaling input for
	// loads that are measured at the source rather than inferred from
	// distress. Empty disables it.
	DemandSeries string
	// SLOFiring optionally reports how many per-VO SLO alerts are
	// currently firing (typically slo.Evaluator.FiringCount). Any firing
	// alert reads as pressure — the SLO plane has already applied its own
	// multi-window hysteresis, so by the time an alert fires the users'
	// error budget is burning faster than it accrues and waiting for
	// queue depth or sheds to confirm it only delays the remedy — and
	// vetoes idle for the same reason. Nil disables the signal.
	SLOFiring func() int
	// Signals holds the scaling thresholds.
	Signals SignalThresholds
}

// Levels at which the always-on tsdb signals read as pressure (scale
// up) or permit idleness (scale down).
const (
	// queueHigh: pressure when any serving member's smoothed queue depth
	// (wire/queue window mean) reaches this.
	queueHigh = 8
	// shedRateHigh: pressure when the fleet-total shed+expired rate
	// (1/s, window) reaches this.
	shedRateHigh = 0.5
	// queueLow: idle requires every member's smoothed queue depth at or
	// below this, and zero shed/expired rate.
	queueLow = 1
)

// SignalThresholds are the levels of the controller's optional signals
// and the window all of its tsdb signals read over.
type SignalThresholds struct {
	// DemandHighPerDP/DemandLowPerDP: with DemandSeries set, the offered
	// rate per serving member (1/s) that reads as pressure (at or above
	// High) resp. permits idle (at or below Low). Zero disables the
	// respective side.
	DemandHighPerDP float64
	DemandLowPerDP  float64
	// Window is the trailing window the rate/mean signals read over
	// (default 4×Interval).
	Window time.Duration
}

// ControllerAction names what one Evaluate pass did.
type ControllerAction string

// Evaluate outcomes.
const (
	ActionNone       ControllerAction = ""
	ActionScaleUp    ControllerAction = "scale-up"
	ActionScaleDown  ControllerAction = "scale-down"
	ActionDrainAbort ControllerAction = "drain-abort"
)

func (cfg *ControllerConfig) setDefaults() error {
	if cfg.Clock == nil || cfg.Factory == nil {
		return fmt.Errorf("digruber: controller needs Clock and Factory")
	}
	if cfg.Metrics == nil {
		return fmt.Errorf("digruber: controller needs a Metrics registry to read signals from")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Minute
	}
	if cfg.MinDPs <= 0 {
		cfg.MinDPs = 1
	}
	if cfg.MaxDPs <= 0 {
		cfg.MaxDPs = 16
	}
	if cfg.MaxDPs < cfg.MinDPs {
		return fmt.Errorf("digruber: controller MaxDPs %d < MinDPs %d", cfg.MaxDPs, cfg.MinDPs)
	}
	if cfg.ScaleUpAfter <= 0 {
		cfg.ScaleUpAfter = 2
	}
	if cfg.ScaleDownAfter <= 0 {
		cfg.ScaleDownAfter = 5
	}
	if cfg.UpCooldown <= 0 {
		cfg.UpCooldown = 2 * cfg.Interval
	}
	if cfg.DownCooldown <= 0 {
		cfg.DownCooldown = 5 * cfg.Interval
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 2 * time.Minute
	}
	if cfg.Signals.Window <= 0 {
		cfg.Signals.Window = 4 * cfg.Interval
	}
	return nil
}

// NewController returns a controller over an initial fleet, which must
// already be started and meshed. The initial members are numbered 0..n-1
// for the factory's index sequence.
func NewController(cfg ControllerConfig, initial []*DecisionPoint) (*Controller, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	if len(initial) == 0 {
		return nil, fmt.Errorf("digruber: controller needs at least one decision point")
	}
	c := &Controller{
		cfg:         cfg,
		clock:       cfg.Clock,
		reg:         cfg.Metrics,
		scaleUps:    cfg.Metrics.Counter("fleet/scale_ups"),
		scaleDowns:  cfg.Metrics.Counter("fleet/scale_downs"),
		drainAborts: cfg.Metrics.Counter("fleet/drain_aborts"),
		fleet:       append([]*DecisionPoint(nil), initial...),
		nextIdx:     len(initial),
	}
	return c, nil
}

// Fleet returns the current serving decision points.
func (c *Controller) Fleet() []*DecisionPoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*DecisionPoint(nil), c.fleet...)
}

// Deployments returns when each dynamically-added point went live;
// Retirements when each drained point finished stopping.
func (c *Controller) Deployments() []time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Time(nil), c.deployLog...)
}

// Retirements returns the completion times of successful scale-downs.
func (c *Controller) Retirements() []time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Time(nil), c.retireLog...)
}

// ManageClients registers the client population the controller
// rebalances across the fleet as it grows and shrinks.
func (c *Controller) ManageClients(clients []*Client) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clients = append([]*Client(nil), clients...)
}

// Start begins the periodic evaluation loop.
func (c *Controller) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done != nil {
		return
	}
	c.done, c.exited = make(chan struct{}), make(chan struct{})
	c.ticker = c.clock.NewTicker(c.cfg.Interval)
	go c.loop(c.ticker, c.done, c.exited)
}

func (c *Controller) loop(ticker vtime.Ticker, done, exited chan struct{}) {
	defer close(exited)
	for {
		select {
		case <-ticker.C():
			c.Evaluate()
		case <-done:
			return
		}
	}
}

// Stop ends the evaluation loop and returns once an evaluation in
// flight has finished (the fleet keeps running).
func (c *Controller) Stop() {
	c.mu.Lock()
	done, exited := c.done, c.exited
	if done == nil {
		c.mu.Unlock()
		return
	}
	c.done = nil
	c.ticker.Stop()
	c.mu.Unlock()
	close(done)
	<-exited
}

// signals is one evaluation's view of the fleet's load, for logging and
// tests.
type signals struct {
	MaxQueue    float64 // largest per-member smoothed queue depth
	ShedRate    float64 // fleet-total shed+expired rate, 1/s
	DemandPerDP float64 // offered request rate per serving member, 1/s
	Saturated   int     // members whose own detector reports saturation
	SLOAlerts   int     // per-VO SLO alerts currently firing
	Pressure    bool
	Idle        bool
}

// assess reads the fleet's signals: each member's self-report and the
// metrics plane. Pressure and idleness are deliberately not
// complements: between them lies the steady state, where streaks reset
// and nothing happens.
func (c *Controller) assess(now time.Time) signals {
	fleet := c.Fleet()
	th := c.cfg.Signals
	var s signals
	for _, dp := range fleet {
		p := dp.metricsPrefix()
		if q := c.reg.WindowMean(p+"wire/queue", now, th.Window); q > s.MaxQueue {
			s.MaxQueue = q
		}
		s.ShedRate += c.reg.WindowRate(p+"wire/shed", now, th.Window) +
			c.reg.WindowRate(p+"wire/expired", now, th.Window)
		if dp.Status().Saturated {
			s.Saturated++
		}
	}
	if c.cfg.DemandSeries != "" && len(fleet) > 0 {
		s.DemandPerDP = c.reg.WindowRate(c.cfg.DemandSeries, now, th.Window) / float64(len(fleet))
	}
	if c.cfg.SLOFiring != nil {
		s.SLOAlerts = c.cfg.SLOFiring()
	}
	s.Pressure = s.Saturated > 0 ||
		s.MaxQueue >= queueHigh ||
		s.ShedRate >= shedRateHigh ||
		s.SLOAlerts > 0 ||
		(c.cfg.DemandSeries != "" && th.DemandHighPerDP > 0 && s.DemandPerDP >= th.DemandHighPerDP)
	s.Idle = s.Saturated == 0 && s.MaxQueue <= queueLow && s.ShedRate == 0 && s.SLOAlerts == 0 &&
		(c.cfg.DemandSeries == "" || th.DemandLowPerDP <= 0 || s.DemandPerDP <= th.DemandLowPerDP)
	return s
}

// Evaluate performs one control pass: read the signals, update the
// hysteresis streaks, and scale when a streak and its cooldown both
// allow. It returns what it did; scale errors (factory failure, drain
// abort) come back alongside ActionNone/ActionDrainAbort with the fleet
// left in a serving state either way.
func (c *Controller) Evaluate() (ControllerAction, error) {
	now := c.clock.Now()
	s := c.assess(now)

	c.mu.Lock()
	switch {
	case s.Pressure:
		c.highStreak++
		c.lowStreak = 0
	case s.Idle:
		c.lowStreak++
		c.highStreak = 0
	default:
		c.highStreak = 0
		c.lowStreak = 0
	}
	wantUp := c.highStreak >= c.cfg.ScaleUpAfter && !now.Before(c.nextUp) && len(c.fleet) < c.cfg.MaxDPs
	wantDown := !wantUp && c.lowStreak >= c.cfg.ScaleDownAfter && !now.Before(c.nextDown) && len(c.fleet) > c.cfg.MinDPs
	c.mu.Unlock()

	switch {
	case wantUp:
		if _, err := c.scaleUp(now); err != nil {
			return ActionNone, err
		}
		return ActionScaleUp, nil
	case wantDown:
		if err := c.scaleDown(now); err != nil {
			return ActionDrainAbort, err
		}
		return ActionScaleDown, nil
	}
	return ActionNone, nil
}

// scaleUp deploys one decision point: build, mesh symmetrically with
// every member, bootstrap its view from a peer snapshot, and rebalance
// clients over the grown fleet.
func (c *Controller) scaleUp(now time.Time) (*DecisionPoint, error) {
	c.mu.Lock()
	idx := c.nextIdx
	c.nextIdx++
	c.mu.Unlock()

	dp, err := c.cfg.Factory(idx)
	if err != nil {
		return nil, fmt.Errorf("digruber: deploying decision point %d: %w", idx, err)
	}

	c.mu.Lock()
	for _, existing := range c.fleet {
		Connect(existing, dp)
	}
	c.fleet = append(c.fleet, dp)
	c.deployLog = append(c.deployLog, now)
	c.resetStreaksLocked(now)
	c.mu.Unlock()

	// Anti-entropy bootstrap: pull a full snapshot from the first peer
	// that answers, so the newcomer schedules on a converged view from
	// its first request instead of drifting in over exchange rounds.
	dp.ResyncFromPeers()
	c.scaleUps.Inc()
	c.rebalance()
	return dp, nil
}

// scaleDown retires the newest member through the graceful drain
// protocol. LIFO victim choice is deterministic and keeps the original
// (usually operator-placed) members for last.
func (c *Controller) scaleDown(now time.Time) error {
	c.mu.Lock()
	if len(c.fleet) <= c.cfg.MinDPs {
		c.mu.Unlock()
		return nil
	}
	victim := c.fleet[len(c.fleet)-1]
	c.mu.Unlock()

	// Move the victim's clients off first: Drain refuses new work, and a
	// client that never sends to the victim cannot race the final flush.
	c.rebalanceExcluding(victim)

	if err := victim.Drain(c.cfg.DrainTimeout); err != nil {
		// Abort path: the victim went back to serving. Return it to the
		// rotation and let a later evaluation try again.
		c.drainAborts.Inc()
		c.mu.Lock()
		c.resetStreaksLocked(now)
		c.mu.Unlock()
		c.rebalance()
		return err
	}

	c.mu.Lock()
	for i, dp := range c.fleet {
		if dp == victim {
			c.fleet = append(c.fleet[:i], c.fleet[i+1:]...)
			break
		}
	}
	survivors := append([]*DecisionPoint(nil), c.fleet...)
	c.retireLog = append(c.retireLog, c.clock.Now())
	c.resetStreaksLocked(now)
	c.mu.Unlock()

	// Symmetric teardown: the departed name must not linger as a dead
	// peer eating probe rounds and pinning every survivor's local log.
	for _, s := range survivors {
		s.RemovePeer(victim.Name())
	}
	c.scaleDowns.Inc()
	c.rebalance()
	return nil
}

// resetStreaksLocked clears both hysteresis streaks and arms both
// cooldowns — called after every scaling action (and after a drain
// abort) so consecutive actions need fresh evidence. Caller holds c.mu.
func (c *Controller) resetStreaksLocked(now time.Time) {
	c.highStreak = 0
	c.lowStreak = 0
	c.nextUp = now.Add(c.cfg.UpCooldown)
	c.nextDown = now.Add(c.cfg.DownCooldown)
}

// rebalance spreads the managed clients round-robin over the fleet.
func (c *Controller) rebalance() {
	c.rebalanceExcluding(nil)
}

// rebalanceExcluding is rebalance with one member (the scale-down
// victim) left out of the rotation.
func (c *Controller) rebalanceExcluding(skip *DecisionPoint) {
	c.mu.Lock()
	targets := make([]*DecisionPoint, 0, len(c.fleet))
	for _, dp := range c.fleet {
		if dp != skip {
			targets = append(targets, dp)
		}
	}
	clients := append([]*Client(nil), c.clients...)
	c.mu.Unlock()
	if len(targets) == 0 {
		return
	}
	for i, cl := range clients {
		t := targets[i%len(targets)]
		cl.Rebind(t.Name(), t.cfg.Node, t.Addr())
	}
}

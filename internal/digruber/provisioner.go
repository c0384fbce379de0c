package digruber

import (
	"fmt"
	"sync"
	"time"

	"digruber/internal/vtime"
)

// Provisioner is the live implementation of the dynamic reconfiguration
// the paper's Section 5 designs but leaves to future work ("we do not
// have a DI-GRUBER implementation for such an approach"): a running
// fleet of decision points under an Overseer that, when saturation is
// detected, deploys a new decision point into the mesh and rebalances
// client bindings across the fleet.
type Provisioner struct {
	overseer *Overseer
	clock    vtime.Clock
	factory  DPFactory
	interval time.Duration
	maxDPs   int

	mu        sync.Mutex
	fleet     []*DecisionPoint
	clients   []*Client
	ticker    vtime.Ticker
	done      chan struct{}
	running   bool
	deployLog []time.Time
}

// DPFactory creates and starts decision point number idx, returning the
// live handle. The factory owns transport/address conventions and must
// seed the new point's engine with the grid's static site knowledge
// before returning (UpdateSites), exactly as a freshly-deployed broker
// would bootstrap from the information service.
type DPFactory func(idx int) (*DecisionPoint, error)

// ProvisionerConfig wires a Provisioner.
type ProvisionerConfig struct {
	Clock vtime.Clock
	// Factory creates new decision points on demand.
	Factory DPFactory
	// Interval is the monitoring period (default 1 minute).
	Interval time.Duration
	// MaxDPs caps fleet growth (default 16).
	MaxDPs int
}

// NewProvisioner returns a provisioner over an initial fleet. The fleet
// must already be started and meshed.
func NewProvisioner(cfg ProvisionerConfig, initial []*DecisionPoint) (*Provisioner, error) {
	if cfg.Clock == nil || cfg.Factory == nil {
		return nil, fmt.Errorf("digruber: provisioner needs Clock and Factory")
	}
	if len(initial) == 0 {
		return nil, fmt.Errorf("digruber: provisioner needs at least one decision point")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Minute
	}
	if cfg.MaxDPs <= 0 {
		cfg.MaxDPs = 16
	}
	p := &Provisioner{
		overseer: NewOverseer(cfg.Clock),
		clock:    cfg.Clock,
		factory:  cfg.Factory,
		interval: cfg.Interval,
		maxDPs:   cfg.MaxDPs,
		fleet:    append([]*DecisionPoint(nil), initial...),
	}
	for _, dp := range p.fleet {
		p.overseer.Attach(dp.Name(), dp.Status)
	}
	return p, nil
}

// Overseer exposes the underlying monitoring service.
func (p *Provisioner) Overseer() *Overseer { return p.overseer }

// Fleet returns the current decision points.
func (p *Provisioner) Fleet() []*DecisionPoint {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*DecisionPoint(nil), p.fleet...)
}

// Deployments returns when each dynamically-added point went live.
func (p *Provisioner) Deployments() []time.Time {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]time.Time(nil), p.deployLog...)
}

// ManageClients registers the client population whose bindings the
// provisioner rebalances after a deployment.
func (p *Provisioner) ManageClients(clients []*Client) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.clients = append([]*Client(nil), clients...)
}

// Start begins periodic monitoring.
func (p *Provisioner) Start() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.running {
		return
	}
	p.running = true
	p.done = make(chan struct{})
	p.ticker = p.clock.NewTicker(p.interval)
	go p.loop(p.ticker, p.done)
}

func (p *Provisioner) loop(ticker vtime.Ticker, done chan struct{}) {
	for {
		select {
		case <-ticker.C():
			p.Evaluate()
		case <-done:
			return
		}
	}
}

// Evaluate performs one monitoring pass: poll the fleet, and if any
// point is saturated (and the cap allows), deploy one more and
// rebalance. It returns the decision point added, if any.
func (p *Provisioner) Evaluate() (*DecisionPoint, error) {
	p.overseer.Poll()
	rec := p.overseer.Recommend()
	if len(rec.Saturated) == 0 {
		return nil, nil
	}
	p.mu.Lock()
	if len(p.fleet) >= p.maxDPs {
		p.mu.Unlock()
		return nil, nil
	}
	idx := len(p.fleet)
	p.mu.Unlock()

	dp, err := p.factory(idx)
	if err != nil {
		return nil, fmt.Errorf("digruber: deploying decision point %d: %w", idx, err)
	}

	p.mu.Lock()
	// Mesh the newcomer with the whole fleet both ways.
	for _, existing := range p.fleet {
		Connect(existing, dp)
	}
	p.fleet = append(p.fleet, dp)
	p.deployLog = append(p.deployLog, p.clock.Now())
	p.overseer.Attach(dp.Name(), dp.Status)
	// Rebalance: spread managed clients round-robin over the new fleet.
	for i, c := range p.clients {
		target := p.fleet[i%len(p.fleet)]
		c.Rebind(target.Name(), target.cfg.Node, target.Addr())
	}
	p.mu.Unlock()

	// Give the newcomer the freshest state available: ask one existing
	// peer to flood immediately rather than waiting a full interval.
	if first := p.Fleet()[0]; first != dp {
		first.ExchangeNow()
	}
	return dp, nil
}

// Stop ends monitoring (the fleet keeps running).
func (p *Provisioner) Stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.running {
		return
	}
	p.running = false
	p.ticker.Stop()
	close(p.done)
}

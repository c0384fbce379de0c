package grid

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"digruber/internal/usla"
	"digruber/internal/vtime"
)

// Ticket tracks one submitted job; Done delivers exactly one Outcome.
type Ticket struct {
	done chan Outcome
}

// Done returns the completion channel.
func (t *Ticket) Done() <-chan Outcome { return t.done }

// SiteConfig configures a site.
type SiteConfig struct {
	Name string
	// Clusters lists CPU counts per cluster; a site's capacity is their
	// sum. The paper notes each site comprises one or more clusters.
	Clusters []int
	// FailProb is the probability a job fails at execution start
	// (failure injection for Euryale's re-planning).
	FailProb float64
	// RNG drives failure injection; nil disables randomness.
	RNG *rand.Rand
}

// Site is one grid site: a capacity of CPUs, a FIFO queue, and usage
// accounting per consumer path.
type Site struct {
	name     string
	total    int
	clock    vtime.Clock
	failProb float64

	mu      sync.Mutex
	rng     *rand.Rand
	free    int
	queue   []*queuedJob
	running map[JobID]*queuedJob
	// usage counts running CPUs per consumer path prefix, so USLA
	// evaluation at any level is O(1).
	usage map[usla.Path]int

	// accounting
	completedJobs int
	consumedCPU   time.Duration // CPU-time delivered (runtime × cpus)

	closed    bool
	onOutcome func(Outcome)
}

type queuedJob struct {
	job      *Job
	ticket   *Ticket
	queuedAt time.Time
	started  time.Time
	timer    vtime.Timer
}

// NewSite builds a site from its config.
func NewSite(cfg SiteConfig, clock vtime.Clock) (*Site, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("grid: site with empty name")
	}
	total := 0
	for _, c := range cfg.Clusters {
		if c <= 0 {
			return nil, fmt.Errorf("grid: site %s has non-positive cluster size", cfg.Name)
		}
		total += c
	}
	if total == 0 {
		return nil, fmt.Errorf("grid: site %s has no CPUs", cfg.Name)
	}
	return &Site{
		name:     cfg.Name,
		total:    total,
		clock:    clock,
		failProb: cfg.FailProb,
		rng:      cfg.RNG,
		free:     total,
		running:  make(map[JobID]*queuedJob),
		usage:    make(map[usla.Path]int),
	}, nil
}

// Name returns the site name.
func (s *Site) Name() string { return s.name }

// SetOutcomeHandler installs a callback invoked (outside the site lock)
// for every finished job. Metrics collectors use this.
func (s *Site) SetOutcomeHandler(f func(Outcome)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onOutcome = f
}

// Submit queues a job at the site. The returned Ticket's Done channel
// delivers the Outcome when the job finishes. Submission fails only if
// the job is invalid, needs more CPUs than the site has, or the site is
// shut down.
func (s *Site) Submit(j *Job) (*Ticket, error) {
	if err := j.Validate(); err != nil {
		return nil, err
	}
	if j.CPUs > s.total {
		return nil, fmt.Errorf("grid: job %s needs %d CPUs, site %s has %d", j.ID, j.CPUs, s.name, s.total)
	}
	t := &Ticket{done: make(chan Outcome, 1)}
	qj := &queuedJob{job: j, ticket: t, queuedAt: s.clock.Now()}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("grid: site %s is shut down", s.name)
	}
	s.queue = append(s.queue, qj)
	s.mu.Unlock()
	s.schedule()
	return t, nil
}

// Close shuts the site down: pending timers are cancelled, and every
// queued or running job resolves immediately with a failed Outcome so
// watchers unblock. Emulation harnesses call this at teardown so no
// compressed-time execution outlives an experiment.
func (s *Site) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	queued := s.queue
	s.queue = nil
	running := s.running
	s.running = make(map[JobID]*queuedJob)
	s.usage = make(map[usla.Path]int)
	s.free = s.total
	now := s.clock.Now()
	s.mu.Unlock()

	//lint:allow mapiter -- teardown: every timer is stopped; stop order is immaterial
	for _, qj := range running {
		if qj.timer != nil {
			qj.timer.Stop()
		}
	}
	for _, set := range [][]*queuedJob{queued, mapValues(running)} {
		for _, qj := range set {
			qj.ticket.done <- Outcome{
				Job: qj.job, Site: s.name,
				QueuedAt: qj.queuedAt, StartedAt: qj.started, FinishedAt: now,
				Failed: true, FailureReason: "site shut down",
			}
		}
	}
}

func mapValues(m map[JobID]*queuedJob) []*queuedJob {
	out := make([]*queuedJob, 0, len(m))
	for _, qj := range m {
		out = append(out, qj)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].job.ID < out[j].job.ID })
	return out
}

// schedule starts jobs in arrival order while the queue head fits in
// the free CPUs.
func (s *Site) schedule() {
	for {
		s.mu.Lock()
		if len(s.queue) == 0 || s.queue[0].job.CPUs > s.free {
			s.mu.Unlock()
			return
		}
		now := s.clock.Now()
		qj := s.queue[0]
		s.queue = append(s.queue[:0], s.queue[1:]...)

		// Failure injection: the job dies at execution start.
		if s.failProb > 0 && s.rng != nil && s.rng.Float64() < s.failProb {
			handler := s.onOutcome
			s.mu.Unlock()
			out := Outcome{
				Job: qj.job, Site: s.name,
				QueuedAt: qj.queuedAt, FinishedAt: now,
				Failed: true, FailureReason: "site execution failure",
			}
			qj.ticket.done <- out
			if handler != nil {
				handler(out)
			}
			continue
		}

		qj.started = now
		s.free -= qj.job.CPUs
		s.running[qj.job.ID] = qj
		for _, prefix := range qj.job.Owner.Prefixes() {
			s.usage[prefix] += qj.job.CPUs
		}
		job := qj.job
		qj.timer = s.clock.AfterFunc(job.Runtime, func() { s.finish(job.ID) })
		s.mu.Unlock()
	}
}

// finish releases a running job's CPUs and delivers its outcome.
func (s *Site) finish(id JobID) {
	s.mu.Lock()
	qj, ok := s.running[id]
	if !ok {
		s.mu.Unlock()
		return
	}
	delete(s.running, id)
	s.free += qj.job.CPUs
	for _, prefix := range qj.job.Owner.Prefixes() {
		s.usage[prefix] -= qj.job.CPUs
		if s.usage[prefix] <= 0 {
			delete(s.usage, prefix)
		}
	}
	s.completedJobs++
	s.consumedCPU += qj.job.Runtime * time.Duration(qj.job.CPUs)
	handler := s.onOutcome
	now := s.clock.Now()
	s.mu.Unlock()

	out := Outcome{
		Job: qj.job, Site: s.name,
		QueuedAt: qj.queuedAt, StartedAt: qj.started, FinishedAt: now,
	}
	qj.ticket.done <- out
	if handler != nil {
		handler(out)
	}
	s.schedule()
}

// Status is a point-in-time snapshot of a site, the unit of information
// monitoring feeds to decision points.
type Status struct {
	Name      string
	TotalCPUs int
	FreeCPUs  int
	// UsageByPath maps consumer path (dotted string, gob-friendly) to
	// running CPUs, for every path prefix with non-zero usage.
	UsageByPath map[string]int
}

// Snapshot returns the site's current status.
func (s *Site) Snapshot() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	usage := make(map[string]int, len(s.usage))
	//lint:allow mapiter -- rekey by Path.String, which is injective; writes cannot collide
	for p, n := range s.usage {
		usage[p.String()] = n
	}
	return Status{
		Name:        s.name,
		TotalCPUs:   s.total,
		FreeCPUs:    s.free,
		UsageByPath: usage,
	}
}

// Accounting summarizes what a site has delivered so far.
type Accounting struct {
	CompletedJobs int
	// ConsumedCPU is total CPU-time delivered to completed jobs.
	ConsumedCPU time.Duration
}

// Accounting returns the site's cumulative accounting.
func (s *Site) Accounting() Accounting {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Accounting{
		CompletedJobs: s.completedJobs,
		ConsumedCPU:   s.consumedCPU,
	}
}

// Package gram stands in for the Condor-G / Globus GRAM job-submission
// path Euryale uses to place jobs at sites: submitting costs wide-area
// latency plus a GRAM processing overhead, and can fail transiently
// (gatekeeper timeouts, auth hiccups) — the failures Euryale's
// re-planning exists to absorb.
package gram

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"digruber/internal/grid"
	"digruber/internal/netsim"
	"digruber/internal/vtime"
)

// Config tunes the submission path.
type Config struct {
	// SubmitOverhead is the GRAM gatekeeper processing cost per
	// submission, independent of the network.
	SubmitOverhead time.Duration
	// TransientFailProb is the probability a submission fails before the
	// job reaches the site queue.
	TransientFailProb float64
	// RNG drives failure injection; nil disables it.
	RNG *rand.Rand
}

// Submitter submits jobs to grid sites on behalf of submission hosts.
type Submitter struct {
	grid    *grid.Grid
	network *netsim.Network
	clock   vtime.Clock
	cfg     Config

	mu sync.Mutex // guards cfg.RNG
}

// NewSubmitter builds a submitter over a grid and emulated network.
func NewSubmitter(g *grid.Grid, network *netsim.Network, clock vtime.Clock, cfg Config) *Submitter {
	return &Submitter{grid: g, network: network, clock: clock, cfg: cfg}
}

// Submit sends job j from submission host to the named site. It blocks
// for the emulated submission latency and returns the site's execution
// ticket, or an error for unknown sites, site-level rejection, or an
// injected transient failure.
func (s *Submitter) Submit(host, siteName string, j *grid.Job) (*grid.Ticket, error) {
	site, ok := s.grid.Site(siteName)
	if !ok {
		return nil, fmt.Errorf("gram: unknown site %q", siteName)
	}
	if s.network != nil {
		if d := s.network.Delay(host, siteName); d > 0 {
			s.clock.Sleep(d)
		}
	}
	if s.cfg.SubmitOverhead > 0 {
		s.clock.Sleep(s.cfg.SubmitOverhead)
	}
	s.mu.Lock()
	fail := s.cfg.TransientFailProb > 0 && s.cfg.RNG != nil && s.cfg.RNG.Float64() < s.cfg.TransientFailProb
	s.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("gram: transient submission failure for job %s at %s", j.ID, siteName)
	}
	return site.Submit(j)
}

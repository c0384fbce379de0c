// Package gram stands in for the Condor-G / Globus GRAM job-submission
// path Euryale uses to place jobs at sites: submitting costs wide-area
// latency plus a GRAM processing overhead. A submission fails only when
// the site is unknown or the site itself refuses the job.
package gram

import (
	"fmt"
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
}

// Submitter submits jobs to grid sites on behalf of submission hosts.
type Submitter struct {
	grid    *grid.Grid
	network *netsim.Network
	clock   vtime.Clock
	cfg     Config
}

// NewSubmitter builds a submitter over a grid and emulated network.
func NewSubmitter(g *grid.Grid, network *netsim.Network, clock vtime.Clock, cfg Config) *Submitter {
	return &Submitter{grid: g, network: network, clock: clock, cfg: cfg}
}

// Submit sends job j from submission host to the named site. It blocks
// for the emulated submission latency and returns the site's execution
// ticket, or an error for an unknown site or a site's refusal.
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
	return site.Submit(j)
}

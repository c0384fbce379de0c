// Package euryale implements the concrete planner the paper submits jobs
// through: Euryale takes a late-binding approach — the site is chosen
// immediately before the job runs, not in an earlier planning phase —
// and recovers from failures by re-planning.
//
// Per the paper, a DagMan-style executor runs a prescript and postscript
// around each job. The prescript calls out to the external site selector
// (DI-GRUBER), submits the job to the chosen site (the paper's rewritten
// submit file), stages
// input files in (registering transfers with the replica catalog), and
// handles re-planning; the postscript stages outputs out, registers the
// produced files, checks the execution, and updates file popularity.
package euryale

import (
	"fmt"

	"digruber/internal/grid"
	"digruber/internal/netsim"
	"digruber/internal/replica"
	"digruber/internal/vtime"
)

// SiteSelector is the external site selector the prescript calls out to.
// DI-GRUBER's client (digruber.Client) is one.
type SiteSelector interface {
	// SelectSite picks a site for j, avoiding excluded sites (previous
	// failed placements during re-planning).
	SelectSite(j *grid.Job, excluded map[string]bool) (site string, err error)
}

// Submitter is the job submission interface (gram.Submitter satisfies it).
type Submitter interface {
	Submit(host, site string, j *grid.Job) (*grid.Ticket, error)
}

// Config tunes the planner.
type Config struct {
	// MaxAttempts bounds placement attempts per job (first try plus
	// re-plans). Zero means 3.
	MaxAttempts int
	// CollectionSite is where postscripts deliver output files.
	CollectionSite string
}

// Planner is the Euryale engine.
type Planner struct {
	selector  SiteSelector
	submitter Submitter
	catalog   *replica.Catalog
	network   *netsim.Network
	clock     vtime.Clock
	cfg       Config
}

// New builds a planner. catalog and network may be nil to skip file
// staging emulation.
func New(selector SiteSelector, submitter Submitter, catalog *replica.Catalog, network *netsim.Network, clock vtime.Clock, cfg Config) (*Planner, error) {
	if selector == nil || submitter == nil || clock == nil {
		return nil, fmt.Errorf("euryale: planner needs selector, submitter and clock")
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.CollectionSite == "" {
		cfg.CollectionSite = "collection"
	}
	return &Planner{
		selector: selector, submitter: submitter, catalog: catalog,
		network: network, clock: clock, cfg: cfg,
	}, nil
}

// Result describes one job's journey through the planner.
type Result struct {
	// Outcome is the successful attempt's; after a failure, the last
	// attempt that ran, or, when none ran, a failure with no QueuedAt.
	Outcome grid.Outcome
	// Attempts counts placements tried (1 = no re-planning needed).
	Attempts int
}

// RunJob drives one job through prescript → submission → postscript,
// re-planning on failure. inputs are LFNs the job consumes; outputs are
// LFNs it produces (registered at the collection area on success).
func (p *Planner) RunJob(j *grid.Job, inputs, outputs []string) (Result, error) {
	var res Result
	excluded := make(map[string]bool)
	var lastErr error
	for attempt := 1; attempt <= p.cfg.MaxAttempts; attempt++ {
		res.Attempts = attempt

		// ---- prescript ----
		site, err := p.selector.SelectSite(j, excluded)
		if err != nil {
			lastErr = fmt.Errorf("euryale: site selection for %s: %w", j.ID, err)
			continue
		}
		p.stageIn(site, inputs)

		// ---- submission (Condor-G / GRAM) ----
		ticket, err := p.submitter.Submit(j.SubmitHost, site, j)
		if err != nil {
			// Discovered failure: re-plan at another site.
			excluded[site] = true
			lastErr = err
			continue
		}
		out := <-ticket.Done()

		// ---- postscript ----
		if out.Failed {
			excluded[site] = true
			res.Outcome = out
			lastErr = fmt.Errorf("euryale: job %s failed at %s: %s", j.ID, site, out.FailureReason)
			continue
		}
		p.stageOut(j, site, outputs)
		for _, lfn := range inputs {
			if p.catalog != nil {
				p.catalog.Touch(lfn)
			}
		}
		res.Outcome = out
		return res, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("euryale: job %s: no placement attempt succeeded", j.ID)
	}
	if res.Outcome.Job == nil { // no attempt ran: the outcome is the planner's
		res.Outcome = grid.Outcome{Job: j, Failed: true, FailureReason: lastErr.Error(), FinishedAt: p.clock.Now()}
	}
	return res, lastErr
}

// stageIn transfers missing input files to the site, paying the
// emulated transfer time, and registers the new copies.
func (p *Planner) stageIn(site string, inputs []string) {
	if p.catalog == nil {
		return
	}
	for _, lfn := range inputs {
		src, ok := p.catalog.Nearest(lfn, site)
		if !ok {
			continue // unknown input: nothing to move
		}
		if src.Site == site {
			continue // already local
		}
		if p.network != nil {
			p.clock.Sleep(p.network.TransferTime(src.Site, site, src.Size))
		}
		p.catalog.Register(lfn, replica.PFN{Site: site, Path: "/staged/" + lfn, Size: src.Size})
	}
}

// stageOut ships produced files to the collection area, paying the
// emulated transfer time, and registers them.
func (p *Planner) stageOut(j *grid.Job, site string, outputs []string) {
	if p.catalog == nil {
		return
	}
	size := j.OutputBytes
	if size <= 0 {
		size = 1 << 20
	}
	for _, lfn := range outputs {
		if p.network != nil {
			p.clock.Sleep(p.network.TransferTime(site, p.cfg.CollectionSite, size))
		}
		p.catalog.Register(lfn, replica.PFN{Site: p.cfg.CollectionSite, Path: "/collected/" + lfn, Size: size})
	}
}

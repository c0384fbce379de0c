// Package grid emulates the computing grid DI-GRUBER brokers over: sites
// composed of clusters of CPUs, each with a FIFO site scheduler, plus the
// job lifecycle the paper models — submitted by a user to a submission
// host, submitted by the host to a site (queued or held), running at the
// site, completed.
//
// The emulated environment stands in for the paper's PlanetLab-hosted
// emulation of a grid ten times larger than Grid3/OSG (hundreds of sites,
// tens of thousands of CPUs). The grid is also the metrics oracle: actual
// free CPUs per site (for scheduling Accuracy), consumed CPU-time (for
// Utilization) and per-job queue times (for QTime) are all measured here.
package grid

import (
	"fmt"
	"time"

	"digruber/internal/usla"
)

// JobID uniquely identifies a job across the whole emulation.
type JobID string

// Job is one unit of work. The paper's workloads are single-CPU jobs
// submitted at a constant rate by each submission host.
type Job struct {
	ID JobID
	// Owner is the consumer path (vo or vo.group or vo.group.user) the
	// job's resource usage is charged to.
	Owner usla.Path
	// CPUs is how many processors the job occupies while running.
	CPUs int
	// Runtime is how long the job runs once started.
	Runtime time.Duration
	// OutputBytes sizes each file Euryale stages out after the job.
	OutputBytes int64
	// SubmitHost is the submission host ("client") the job came from.
	SubmitHost string
}

// Validate checks job fields.
func (j *Job) Validate() error {
	if j.ID == "" {
		return fmt.Errorf("grid: job with empty ID")
	}
	if j.Owner.VO == "" {
		return fmt.Errorf("grid: job %s has no owner VO", j.ID)
	}
	if j.CPUs <= 0 {
		return fmt.Errorf("grid: job %s requests %d CPUs", j.ID, j.CPUs)
	}
	if j.Runtime <= 0 {
		return fmt.Errorf("grid: job %s has non-positive runtime", j.ID)
	}
	return nil
}

// Outcome describes a finished job.
type Outcome struct {
	Job  *Job
	Site string
	// QueuedAt is when the site accepted the job.
	QueuedAt time.Time
	// StartedAt is when CPUs were assigned (zero if it never ran).
	StartedAt time.Time
	// FinishedAt is when the job completed or failed.
	FinishedAt time.Time
	// Failed reports unsuccessful termination.
	Failed bool
	// FailureReason explains a failure.
	FailureReason string
}

// QTime is the paper's per-job queue time: from dispatch to the site
// until execution start. Failed-before-start jobs report the full span to
// failure.
func (o Outcome) QTime() time.Duration {
	if o.StartedAt.IsZero() {
		return o.FinishedAt.Sub(o.QueuedAt)
	}
	return o.StartedAt.Sub(o.QueuedAt)
}

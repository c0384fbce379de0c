package exp

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"digruber/internal/grid"
)

// This file implements the five evaluation metrics of the paper's
// Section 4.2 — Average Response Time, Throughput, Queue Time (plus the
// Normalized QTime refinement of Section 4.4), Average Resource
// Utilization, and Average Scheduling Accuracy — split, as Tables 1 and 2
// are, between requests handled by DI-GRUBER and requests that timed out
// into random selection.

// JobRecord accumulates one job's journey through scheduling and
// execution.
type JobRecord struct {
	ID string
	// Response is the scheduling operation's response time.
	Response time.Duration
	// Handled reports whether DI-GRUBER answered (vs. timeout fallback).
	Handled bool
	// Accuracy is the paper's SA_i: free CPUs at the selected site over
	// free CPUs at the best site, both at dispatch time (DESIGN.md,
	// "Scheduling accuracy").
	Accuracy float64
	// QTime is the site queue time (known at completion).
	QTime time.Duration
	// CPUTime is runtime × CPUs actually delivered (0 if failed).
	CPUTime time.Duration
	// Completed and Failed describe execution state. Refused marks a
	// failure before the job reached a queue: the site turned the
	// submission away, so the job has no queue time.
	Completed bool
	Failed    bool
	Refused   bool
}

// Collector gathers job records and produces the paper's tables. Safe
// for concurrent use.
type Collector struct {
	mu   sync.Mutex
	jobs map[string]*JobRecord
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{jobs: make(map[string]*JobRecord)}
}

// RecordScheduled registers the scheduling half of a job's record.
func (c *Collector) RecordScheduled(id string, response time.Duration, handled bool, accuracy float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.recordLocked(id)
	r.Response = response
	r.Handled = handled
	r.Accuracy = accuracy
}

// RecordOutcome registers the execution half of a job's record. An
// outcome with no QueuedAt is a job no site accepted: it failed, and
// counts as a request but never as a queue wait.
func (c *Collector) RecordOutcome(out grid.Outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.recordLocked(string(out.Job.ID))
	r.Failed, r.Completed, r.Refused = out.Failed, !out.Failed, out.QueuedAt.IsZero()
	if !r.Refused {
		r.QTime = out.QTime()
	}
	if r.Completed {
		r.CPUTime = out.Job.Runtime * time.Duration(out.Job.CPUs)
	}
}

// recordLocked returns id's record, creating it. Caller holds c.mu.
func (c *Collector) recordLocked(id string) *JobRecord {
	r, ok := c.jobs[id]
	if !ok {
		r = &JobRecord{ID: id}
		c.jobs[id] = r
	}
	return r
}

// Records returns a copy of all records, sorted by ID.
func (c *Collector) Records() []JobRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]JobRecord, 0, len(c.jobs))
	for _, r := range c.jobs {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TableRow is one line of the paper's Table 1/2: aggregate metrics over
// one class of requests.
type TableRow struct {
	// Class is "handled", "not-handled" or "all".
	Class string
	// PctOfRequests is this class's share of all requests.
	PctOfRequests float64
	// NumRequests counts requests in the class.
	NumRequests int
	// MeanQTime averages site queue time over the class's finished jobs;
	// a refused submission never queued and is not one of them.
	MeanQTime time.Duration
	// NormQTime is the paper's Normalized QTime: QTime divided by the
	// number of requests in the class.
	NormQTime time.Duration
	// Util is the class's delivered CPU-time over total available
	// CPU-time in the observation window.
	Util float64
	// Accuracy averages SA_i over the class.
	Accuracy float64
	// MeanResponse averages scheduling response time over the class.
	MeanResponse time.Duration
}

// Table is the full handled / not-handled / all breakdown.
type Table struct {
	Rows []TableRow
}

// BuildTable computes the paper-style table given the grid capacity and
// the observation window the records span.
func (c *Collector) BuildTable(totalCPUs int, window time.Duration) Table {
	records := c.Records()
	classes := []struct {
		name   string
		filter func(JobRecord) bool
	}{
		{"handled", func(r JobRecord) bool { return r.Handled }},
		{"not-handled", func(r JobRecord) bool { return !r.Handled }},
		{"all", func(JobRecord) bool { return true }},
	}
	available := float64(totalCPUs) * window.Seconds()
	var table Table
	for _, cl := range classes {
		var row TableRow
		row.Class = cl.name
		var qtimeSum, respSum, cpuSum time.Duration
		var accSum float64
		finished := 0
		for _, r := range records {
			if !cl.filter(r) {
				continue
			}
			row.NumRequests++
			respSum += r.Response
			accSum += r.Accuracy
			cpuSum += r.CPUTime
			if (r.Completed || r.Failed) && !r.Refused {
				qtimeSum += r.QTime
				finished++
			}
		}
		if len(records) > 0 {
			row.PctOfRequests = float64(row.NumRequests) / float64(len(records)) * 100
		}
		if finished > 0 {
			row.MeanQTime = qtimeSum / time.Duration(finished)
		}
		if row.NumRequests > 0 {
			row.NormQTime = qtimeSum / time.Duration(row.NumRequests)
			row.Accuracy = accSum / float64(row.NumRequests)
			row.MeanResponse = respSum / time.Duration(row.NumRequests)
		}
		if available > 0 {
			row.Util = cpuSum.Seconds() / available
		}
		table.Rows = append(table.Rows, row)
	}
	return table
}

// String renders the table the way the paper prints it.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %6s %8s %10s %10s %7s %9s %10s\n",
		"class", "%req", "#req", "QTime", "NormQT", "Util", "Accuracy", "Response")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "%-12s %5.1f%% %8d %10s %10s %6.1f%% %8.1f%% %10s\n",
			r.Class, r.PctOfRequests, r.NumRequests,
			round(r.MeanQTime), round(r.NormQTime),
			r.Util*100, r.Accuracy*100, round(r.MeanResponse))
	}
	return b.String()
}

func round(d time.Duration) time.Duration { return d.Round(10 * time.Millisecond) }

// AccuracyMean averages SA_i over records matching handled (nil = all).
func (c *Collector) AccuracyMean(handled *bool) float64 {
	records := c.Records()
	var sum float64
	n := 0
	for _, r := range records {
		if handled != nil && r.Handled != *handled {
			continue
		}
		sum += r.Accuracy
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

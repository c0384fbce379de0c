// Package slo is the reproduction's service-level-objective plane: it
// turns the raw series the tsdb registry samples into per-VO judgments
// — is this virtual organization's usage SLA being *met*? — and into
// alerts principled enough to drive scaling.
//
// DI-GRUBER's brokers enforce usage SLAs (USLAs) per VO, but the
// paper's evaluation only measures latency and goodput curves. Ranjan
// et al.'s SLA-based coordinated superscheduling (PAPERS.md) argues the
// missing step: admission and scaling decisions should key off SLA
// attainment, not raw queue depth. This package closes that loop over
// the existing metrics plane:
//
//   - An Objective declares what one VO is owed: a latency threshold a
//     target fraction of requests must meet, and optionally a goodput
//     floor (handled requests per second).
//   - The Evaluator reads the VO's windowed latency histogram and
//     handled counter back out of the tsdb registry (Align over the
//     bucket series, WindowRate over the counter) and produces
//     attainment and error-budget burn rates over a fast and a slow
//     trailing window — the SRE multi-window pair (5m/1h by default),
//     fast to react, slow to resist flapping.
//   - A per-VO alert state machine advances pending → firing → resolved
//     off virtual time with hysteresis on both edges, and logs every
//     transition.
//
// Everything is deterministic under the repo's rules: timestamps come
// from the caller (vtime), objectives evaluate in sorted-VO order, and
// the transition log serializes to byte-identical JSONL for the same
// seeded run.
package slo

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"digruber/internal/tsdb"
)

// Objective declares one VO's service-level objective.
type Objective struct {
	// VO names the virtual organization (the job owner's USLA root,
	// e.g. "atlas"). It keys the alert and every derived series.
	VO string
	// LatencySeries is the base name of the VO's windowed latency
	// histogram in the registry (the histogram whose sampled series are
	// LatencySeries/le/<bound>, /count, /sum).
	LatencySeries string
	// LatencyThreshold is the latency (seconds) a request must meet to
	// count as good.
	LatencyThreshold float64
	// LatencyTarget is the fraction of requests that must meet the
	// threshold (e.g. 0.9). 1-LatencyTarget is the error budget the burn
	// rates are measured against.
	LatencyTarget float64
	// GoodputSeries optionally names a cumulative counter of the VO's
	// handled requests; its window rate is the VO's goodput.
	GoodputSeries string
	// GoodputFloor is the goodput (1/s) below which the VO's objective
	// reads as missed. Zero disables the floor.
	GoodputFloor float64
}

// Config wires an Evaluator.
type Config struct {
	// Registry is the source of the evaluation: the latency histograms
	// and handled counters it reads back.
	Registry *tsdb.Registry
	// Objectives are the per-VO objectives, evaluated in sorted-VO order.
	Objectives []Objective
	// FastWindow/SlowWindow are the multi-window burn-rate pair
	// (defaults 5m and 1h).
	FastWindow time.Duration
	SlowWindow time.Duration
	// BurnThreshold is the burn rate both windows must reach before an
	// alert leaves inactive (default 1: the budget is being consumed
	// faster than it accrues).
	BurnThreshold float64
	// PendingFor is how long the burn must hold before a pending alert
	// fires (default 2m); ResolveAfter how long the fast window must
	// stay below threshold before a firing alert resolves (default 5m).
	// Both are hysteresis against flapping, measured on virtual time.
	PendingFor   time.Duration
	ResolveAfter time.Duration
}

// AlertState is one alert's position in the state machine.
type AlertState int

// Alert states: an alert is born Inactive, turns Pending when both burn
// windows exceed the threshold, Firing when the burn has held for
// PendingFor, and returns to Inactive either by cancellation (the burn
// subsided while still pending) or by resolution (a firing alert's fast
// window stayed quiet for ResolveAfter).
const (
	StateInactive AlertState = iota
	StatePending
	StateFiring
)

// String names the state for labels and JSONL.
func (s AlertState) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateFiring:
		return "firing"
	default:
		return "inactive"
	}
}

// Transition is one alert state change, the unit of the audit log.
type Transition struct {
	VO   string     `json:"vo"`
	From AlertState `json:"-"`
	To   AlertState `json:"-"`
	// FromState/ToState carry the states by name in JSONL.
	FromState string    `json:"from"`
	ToState   string    `json:"to"`
	At        time.Time `json:"at"`
	// BurnFast/BurnSlow are the burn rates at the transition.
	BurnFast float64 `json:"burn_fast"`
	BurnSlow float64 `json:"burn_slow"`
}

// Assessment is one objective's evaluation at one instant.
type Assessment struct {
	VO string
	// AttainFast/AttainSlow are the fraction of requests meeting the
	// latency threshold over the fast resp. slow window (1 with no
	// traffic: an idle VO is not missing its objective).
	AttainFast float64
	AttainSlow float64
	// BurnFast/BurnSlow are the error-budget burn rates: error rate over
	// the window divided by the budget (1-LatencyTarget). Burn 1 means
	// the budget is consumed exactly as fast as it accrues.
	BurnFast float64
	BurnSlow float64
	// Goodput is the handled-request rate over the fast window (0 when
	// the objective has no GoodputSeries).
	Goodput float64
	// GoodputOK reports whether the goodput floor is met (true when no
	// floor is set).
	GoodputOK bool
}

// alert is one VO's live state-machine bookkeeping.
type alert struct {
	state      AlertState
	since      time.Time // entered the current state
	belowSince time.Time // firing only: fast burn below threshold since
	burnFast   float64   // fast-window burn rate at the last evaluation
}

// Evaluator evaluates a set of objectives against one registry and runs
// their alert state machines. Drive it with Evaluate on virtual-clock
// ticks (after the registry Sample for the same instant, so the windows
// include the tick's data).
type Evaluator struct {
	cfg        Config
	objectives []Objective // sorted by VO

	// mu guards the alert states and the transition log: Evaluate runs
	// on the harness's step loop while FiringCount/Alerts may be read
	// from a controller's ticker goroutine or a Status handler.
	mu     sync.Mutex
	alerts map[string]*alert
	log    []Transition
}

// New validates the config and builds an evaluator. It registers no
// series: the assessments, the alert summary and the transition log are
// its outputs, and their readers (the Controller, Status, the alerts
// file) take them from the Evaluator.
func New(cfg Config) (*Evaluator, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("slo: Config.Registry is required")
	}
	if len(cfg.Objectives) == 0 {
		return nil, fmt.Errorf("slo: no objectives")
	}
	if cfg.FastWindow <= 0 {
		cfg.FastWindow = 5 * time.Minute
	}
	if cfg.SlowWindow <= 0 {
		cfg.SlowWindow = time.Hour
	}
	if cfg.BurnThreshold <= 0 {
		cfg.BurnThreshold = 1
	}
	if cfg.PendingFor <= 0 {
		cfg.PendingFor = 2 * time.Minute
	}
	if cfg.ResolveAfter <= 0 {
		cfg.ResolveAfter = 5 * time.Minute
	}
	e := &Evaluator{cfg: cfg, alerts: make(map[string]*alert)}
	e.objectives = append([]Objective(nil), cfg.Objectives...)
	sort.Slice(e.objectives, func(i, j int) bool { return e.objectives[i].VO < e.objectives[j].VO })
	for _, o := range e.objectives {
		if o.VO == "" || o.LatencySeries == "" {
			return nil, fmt.Errorf("slo: objective needs VO and LatencySeries (got %+v)", o)
		}
		if o.LatencyTarget <= 0 || o.LatencyTarget >= 1 {
			return nil, fmt.Errorf("slo: objective %s: LatencyTarget must be in (0,1), got %v", o.VO, o.LatencyTarget)
		}
		if _, dup := e.alerts[o.VO]; dup {
			return nil, fmt.Errorf("slo: duplicate objective for VO %s", o.VO)
		}
		e.alerts[o.VO] = &alert{}
	}
	return e, nil
}

// attainment is the fraction of requests over the trailing window whose
// latency met the threshold, from the histogram's sampled bucket series.
// The bucket layout is discovered from the series the registry actually
// holds (every /le/<bound> under the base name), and the window join
// uses Align so a bucket series that appeared mid-run cannot skew the
// sums. No traffic in the window reads as full attainment.
func (e *Evaluator) attainment(o Objective, now time.Time, window time.Duration) float64 {
	reg := e.cfg.Registry
	var good []string
	countName := o.LatencySeries + "/count"
	for _, nv := range reg.LatestByPrefix(o.LatencySeries + "/le/") {
		label := strings.TrimPrefix(nv.Name, o.LatencySeries+"/le/")
		if label == "inf" {
			continue
		}
		bound, err := strconv.ParseFloat(label, 64)
		if err != nil || bound > o.LatencyThreshold {
			continue
		}
		good = append(good, nv.Name)
	}
	f := reg.Align(append(append([]string(nil), good...), countName)...)
	from := now.Add(-window)
	var goodSum, total float64
	for i, t := range f.Times {
		if t.Before(from) || t.After(now) {
			continue
		}
		if c := f.Values[countName][i]; !math.IsNaN(c) {
			total += c
		}
		for _, name := range good {
			if v := f.Values[name][i]; !math.IsNaN(v) {
				goodSum += v
			}
		}
	}
	if total == 0 {
		return 1
	}
	return goodSum / total
}

// Evaluate runs one evaluation pass at virtual time now and returns the
// per-objective assessments in sorted-VO order, and advances the alert
// state machines.
func (e *Evaluator) Evaluate(now time.Time) []Assessment {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Assessment, 0, len(e.objectives))
	for _, o := range e.objectives {
		a := e.alerts[o.VO]
		budget := 1 - o.LatencyTarget
		as := Assessment{VO: o.VO, GoodputOK: true}
		as.AttainFast = e.attainment(o, now, e.cfg.FastWindow)
		as.AttainSlow = e.attainment(o, now, e.cfg.SlowWindow)
		as.BurnFast = (1 - as.AttainFast) / budget
		as.BurnSlow = (1 - as.AttainSlow) / budget
		if o.GoodputSeries != "" {
			as.Goodput = e.cfg.Registry.WindowRate(o.GoodputSeries, now, e.cfg.FastWindow)
			if o.GoodputFloor > 0 {
				as.GoodputOK = as.Goodput >= o.GoodputFloor
			}
		}
		e.step(o.VO, a, now, as)
		a.burnFast = as.BurnFast
		out = append(out, as)
	}
	return out
}

// step advances one alert's state machine.
func (e *Evaluator) step(vo string, a *alert, now time.Time, as Assessment) {
	burning := as.BurnFast >= e.cfg.BurnThreshold && as.BurnSlow >= e.cfg.BurnThreshold
	switch a.state {
	case StateInactive:
		if burning {
			e.transition(vo, a, StatePending, now, as)
		}
	case StatePending:
		switch {
		case !burning:
			// Cancelled before firing: the multi-window guard did its job.
			e.transition(vo, a, StateInactive, now, as)
		case now.Sub(a.since) >= e.cfg.PendingFor:
			e.transition(vo, a, StateFiring, now, as)
		}
	case StateFiring:
		// Resolution watches the fast window only: the slow window keeps
		// burning long after the incident ends, and holding the alert for
		// it would punish recovery.
		if as.BurnFast >= e.cfg.BurnThreshold {
			a.belowSince = time.Time{}
			break
		}
		if a.belowSince.IsZero() {
			a.belowSince = now
		}
		if now.Sub(a.belowSince) >= e.cfg.ResolveAfter {
			e.transition(vo, a, StateInactive, now, as)
		}
	}
}

// transition moves an alert to a new state and logs the change.
func (e *Evaluator) transition(vo string, a *alert, to AlertState, now time.Time, as Assessment) {
	tr := Transition{
		VO: vo, From: a.state, To: to,
		FromState: a.state.String(), ToState: to.String(),
		At: now, BurnFast: as.BurnFast, BurnSlow: as.BurnSlow,
	}
	a.state = to
	a.since = now
	a.belowSince = time.Time{}
	e.log = append(e.log, tr)
}

// FiringCount reports how many alerts are currently firing — the
// controller's slo_burn scale-up signal.
func (e *Evaluator) FiringCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for _, o := range e.objectives {
		if e.alerts[o.VO].state == StateFiring {
			n++
		}
	}
	return n
}

// AlertStatus is one alert's current state, for status surfaces.
type AlertStatus struct {
	VO    string
	State AlertState
	Since time.Time
	// BurnFast is the fast-window burn rate at the last evaluation.
	BurnFast float64
}

// Alerts returns every non-inactive alert in sorted-VO order.
func (e *Evaluator) Alerts() []AlertStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []AlertStatus
	for _, o := range e.objectives {
		a := e.alerts[o.VO]
		if a.state == StateInactive {
			continue
		}
		out = append(out, AlertStatus{VO: o.VO, State: a.state, Since: a.since, BurnFast: a.burnFast})
	}
	return out
}

// Transitions returns the full transition log in occurrence order.
func (e *Evaluator) Transitions() []Transition {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]Transition(nil), e.log...)
}

// WriteTransitionsJSONL streams transitions to w, one JSON object per
// line — deterministic for a deterministic run, so two identically
// seeded runs serialize byte-identical logs (the replay gate ext-slo
// asserts alongside the metrics JSONL).
func WriteTransitionsJSONL(w io.Writer, transitions []Transition) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, tr := range transitions {
		if err := enc.Encode(tr); err != nil {
			return fmt.Errorf("slo: write transitions jsonl: %w", err)
		}
	}
	return bw.Flush()
}

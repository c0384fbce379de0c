// Package digruber implements the paper's contribution: the distributed
// two-layer brokering infrastructure that extends GRUBER with multiple
// decision points, loosely synchronized by periodic information exchange
// over a mesh.
//
// A DecisionPoint wraps a gruber.Engine behind the emulated GT3/GT4
// service stack (wire package). Submission-host Clients bind statically
// to one decision point, query it for site loads, run site-selector logic
// locally, and report the dispatch back — the two-round-trip interaction
// the paper describes. Decision points flood their recent dispatch
// observations to every peer each exchange interval; how much they share
// is the DisseminationStrategy (paper Section 3.5). A client whose
// decision point fails to answer within its timeout degrades gracefully
// to random site selection without USLAs.
package digruber

import (
	"time"

	"digruber/internal/gossip"
	"digruber/internal/gruber"
	"digruber/internal/usla"
)

// RPC method names exposed by a decision point.
const (
	MethodQuery    = "DIGRUBER.QuerySiteLoads"
	MethodReport   = "DIGRUBER.ReportDispatch"
	MethodExchange = "DIGRUBER.Exchange"
	MethodStatus   = "DIGRUBER.Status"
	// MethodSchedule is the paper's proposed tighter coupling between
	// broker and job manager: one round trip in which the decision point
	// runs the site selection itself and records the dispatch, instead
	// of shipping full site state to the client and waiting for a
	// report. See the coupling ablation.
	MethodSchedule = "DIGRUBER.ScheduleJob"
	// MethodProposeAgreement installs or updates a WS-Agreement-style
	// USLA at runtime — the paper's "interactions relating to USLA
	// modification" that load the brokering service alongside queries.
	// Under the usage-and-USLAs strategy the new rules flood to peers at
	// the next exchange.
	MethodProposeAgreement = "DIGRUBER.ProposeAgreement"
	// MethodPublishedAgreements returns the decision point's current
	// USLA knowledge as agreements, for consumers to "access and
	// interpret USLA statements published by providers".
	MethodPublishedAgreements = "DIGRUBER.PublishedAgreements"
	// MethodSnapshot is the anti-entropy path: a decision point rejoining
	// after a crash pulls one peer's full unexpired dispatch view instead
	// of waiting for records to drift in over incremental exchanges.
	MethodSnapshot = "DIGRUBER.Snapshot"
	// MethodGossip is one peer-sampling push-pull exchange under the
	// Gossip dissemination strategy: digests (version vectors over origin
	// decision points) travel both ways and each side ships what the
	// other's vector lacks, own and relayed records alike.
	MethodGossip = "DIGRUBER.Gossip"
)

// ProposeArgs carries one agreement document (XML, as a WS-Agreement
// subset) to install.
type ProposeArgs struct {
	AgreementXML []byte
}

// ProposeReply reports how many USLA entries the agreement contributed
// (0 if it was already expired).
type ProposeReply struct {
	EntriesAdded int
	Warnings     []string
}

// PublishedArgs optionally filters by provider ("" = all).
type PublishedArgs struct {
	Provider string
}

// PublishedReply returns agreements as XML documents.
type PublishedReply struct {
	AgreementsXML [][]byte
}

// ScheduleArgs asks the decision point to select a site and record the
// dispatch in one interaction.
type ScheduleArgs struct {
	JobID   string
	Owner   string
	CPUs    int
	Runtime time.Duration
}

// ScheduleReply returns the chosen site (OK false when no site
// qualifies under USLAs and availability).
type ScheduleReply struct {
	Site string
	OK   bool
}

// QueryArgs asks for the engine's evaluation of every site for a job.
type QueryArgs struct {
	// Owner is the dotted consumer path of the job.
	Owner string
	// CPUs is the job's CPU demand.
	CPUs int
}

// QueryReply carries the per-site evaluations. Its size (hundreds of
// sites) is what makes a DI-GRUBER query so much heavier than the simple
// service call of Figure 1.
type QueryReply struct {
	Loads []gruber.SiteLoad
}

// ReportArgs informs the decision point of the client's site selection.
type ReportArgs struct {
	Dispatch gruber.Dispatch
}

// ReportReply acknowledges a dispatch report.
type ReportReply struct {
	OK bool
}

// ExchangeArgs is one peer-to-peer synchronization message: the sender's
// own dispatch observations since its last successful exchange with this
// peer, plus (under the usage-and-USLAs strategy) USLA entries.
type ExchangeArgs struct {
	From       string
	Dispatches []gruber.Dispatch
	USLAs      []usla.Entry
}

// ExchangeReply reports how many records were new to the receiver.
type ExchangeReply struct {
	Merged int
}

// GossipArgs is the push half of one gossip exchange: the sender's
// version-vector digest over every origin it holds a log for, the
// records it believes this receiver lacks (diffed against the
// receiver's last-acknowledged vector), and a bounded membership sample
// so fleet growth propagates epidemically too.
type GossipArgs struct {
	From string
	// Round is the sender's gossip round counter, carried for traces and
	// debugging (receivers do not depend on it).
	Round uint64
	// Digest is the sender's version vector as a sorted cursor list —
	// everything the sender holds, so the receiver can both dedup the
	// push and compute the pull.
	Digest []gossip.Cursor
	// Records is the push: dispatch records the receiver's last
	// acknowledged vector did not cover, own and relayed origins alike.
	Records []gruber.Dispatch
	// Members is a bounded membership sample (the sender plus its
	// sampled targets this round); receivers add unknown names to their
	// own view, so joins spread without a central registry.
	Members []gossip.Member
}

// GossipReply is the pull half: the receiver's post-merge digest (the
// sender's acknowledgment basis for both retransmission and
// compaction) and the records the sender's digest was missing.
type GossipReply struct {
	From    string
	Digest  []gossip.Cursor
	Records []gruber.Dispatch
	// Stored counts push records the receiver appended to a log — the
	// sender's measure of how useful the push was (vs pure redundancy).
	Stored int
}

// SnapshotArgs requests a full state snapshot; From names the requester
// so the donor can mark that peer alive again.
type SnapshotArgs struct {
	From string
	// Vector, when non-empty, is the requester's version vector as a
	// sorted cursor list: a durably-recovered decision point advertises
	// what it already replayed from its write-ahead store, and the donor
	// ships only the seq-gap (plus unstamped records). Nil means "send
	// everything" — the pre-durability request. Appended as a trailing
	// extension field: gob elides the nil slice, so vector-less requests
	// stay byte-identical to pre-durability builds
	// (TestSnapshotWireCompat).
	Vector []gossip.Cursor
}

// SnapshotReply carries the donor's complete unexpired dispatch view, in
// deterministic order. Unlike ExchangeArgs it is not filtered by origin:
// the requester is assumed to have lost everything.
type SnapshotReply struct {
	From       string
	Dispatches []gruber.Dispatch
}

// PeerHealth is one mesh link's health as seen from a decision point.
type PeerHealth struct {
	Name string
	// State is "alive", "suspect" or "dead".
	State string
	// ConsecutiveFails counts exchange failures since the last success.
	ConsecutiveFails int
}

// StatusArgs requests a decision point's self-assessment.
type StatusArgs struct {
	// WithMetrics asks the decision point to attach its latest metrics
	// snapshot (see StatusReply.Metrics). The zero value encodes
	// identically to the old empty StatusArgs, so old callers and new
	// servers interoperate byte-for-byte.
	WithMetrics bool
}

// MetricSample is one series' latest value in a metrics snapshot.
type MetricSample struct {
	Name string
	V    float64
}

// StatusReply is a decision point's health/load report, the raw material
// for the third-party reconfiguration monitor of Section 5.
type StatusReply struct {
	Name string
	// Queries etc. mirror the engine counters.
	Queries          int64
	LocalDispatches  int64
	RemoteDispatches int64
	// Received/Completed/Shed/ConnLost/InFlight/Queued mirror the service
	// stack. ConnLost counts responses computed for callers that had
	// already hung up — wasted container work, the third leg of the
	// shed/served/conn-lost failure-class split.
	Received  int64
	Completed int64
	Shed      int64
	ConnLost  int64
	InFlight  int64
	Queued    int
	// Saturated is the decision point's own saturation verdict.
	Saturated bool
	// ObservedRate is the recent request arrival rate (req/s).
	ObservedRate float64
	// CapacityRate is the sustainable rate (req/s) the point calibrates
	// from its own service times: workers / mean service time.
	CapacityRate float64
	// Peers reports the health of every mesh link, sorted by peer name.
	Peers []PeerHealth
	// At is the decision point's local (virtual) time of the report.
	At time.Time
	// Metrics is the decision point's latest metrics snapshot, attached
	// only when StatusArgs.WithMetrics is set and a registry is wired.
	// Extension fields (Metrics and everything after it) are append-only:
	// gob's value encoding elides zero fields and delta-encodes field
	// indices, so appending keeps replies without the extensions
	// byte-identical to older builds, while inserting earlier would
	// renumber every later field (see TestStatusWireCompat).
	Metrics []MetricSample
	// Expired counts requests the service stack dropped unprocessed at
	// dequeue because the caller's propagated deadline had already
	// passed — the overload-control plane's stale-work measure
	// (wire.Stats.Expired). Zero on pre-overload builds and elided from
	// the encoding when zero.
	Expired int64
	// State is the decision point's lifecycle state: empty while serving
	// (the steady state, elided from the encoding so replies stay
	// byte-identical to pre-lifecycle builds) and StateDraining while the
	// point is retiring from the fleet. A stopped point cannot answer
	// Status at all, so "stopped" never appears on the wire — monitors
	// infer it from the poll failing. Appended after Expired, like every
	// extension field.
	State string
	// Alerts is the decision point's current per-VO SLO alert summary
	// (pending and firing alerts only), attached when an alert source is
	// wired via SetAlertSource and at least one alert is active. Nil in
	// the steady state and elided from the encoding, so replies without
	// alerts stay byte-identical to pre-SLO builds. Appended after State,
	// like every extension field.
	Alerts []AlertSummary
}

// AlertSummary is one VO's active SLO alert in a StatusReply: which VO,
// how far along the state machine ("pending" or "firing"), since when,
// and the fast-window burn rate at the last evaluation. It mirrors the
// slo package's AlertStatus without importing it — the wire schema must
// not chase an internal package's shape.
type AlertSummary struct {
	VO    string
	State string
	Since time.Time
	Burn  float64
}

// Lifecycle states a decision point advertises in StatusReply.State.
// StateServing is what the empty string means; it is never encoded.
const (
	StateServing  = "serving"
	StateDraining = "draining"
	StateStopped  = "stopped"
)

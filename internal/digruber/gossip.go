package digruber

import (
	"sort"

	"digruber/internal/gossip"
	"digruber/internal/gruber"
	"digruber/internal/trace"
	"digruber/internal/wire"
)

// The Gossip dissemination strategy (strategy.go) replaces the full-mesh
// flood with peer-sampling push-pull rounds. Each round this decision
// point draws fanout-k peers from its membership view with a seeded
// deterministic shuffle (gossip.Sample), sends each its
// version-vector digest plus the records that peer's last-acknowledged
// vector lacked, and merges the records the peer's reply digest proved
// this side lacked. Third-party records relay transitively through the
// per-origin logs (gruber.MergeGossip), so a sparse sampled graph still
// converges — in O(log N) rounds with high probability — while per-point
// traffic tracks the fanout, not the fleet size.

// GossipConfig tunes the Gossip dissemination strategy.
type GossipConfig struct {
	// Fanout is how many sampled peers one round contacts
	// (gossip.DefaultFanout when 0).
	Fanout int
	// ViewSize caps the active membership subset this point gossips
	// with; 0 means the whole peer set stays active. Capping bounds
	// per-point link state at very large fleets while the per-point rank
	// permutation keeps the union of subgraphs connected.
	ViewSize int
	// Seed drives peer sampling and view ranking. Fleets replay
	// byte-identically under a Manual clock for a fixed seed.
	Seed int64
}

func (g *GossipConfig) setDefaults() {
	if g.Fanout <= 0 {
		g.Fanout = gossip.DefaultFanout
	}
}

// selfMember describes this decision point for membership piggybacking.
func (dp *DecisionPoint) selfMember() gossip.Member {
	return gossip.Member{Name: dp.cfg.Name, Node: dp.cfg.Node, Addr: dp.cfg.Addr}
}

// gossipPart is one push-pull round's share of the round skeleton: a
// seeded sample of the membership — or, under force (the drain
// flush), every known peer — is sent this engine's digest plus whatever
// the peer's last-acknowledged vector lacked, and answers with the
// records this engine's digest lacked. Only the calls run concurrently:
// replies merge in link-name order, so a round's merges — and with them
// the relay/duplicate accounting — are deterministic under a Manual
// clock regardless of reply arrival order.
func (dp *DecisionPoint) gossipPart(force bool) roundPart[GossipArgs, GossipReply] {
	dp.mu.Lock()
	round := dp.gossipRound
	dp.gossipRound++
	drawn := dp.peerNamesLocked()
	if !force {
		g := dp.cfg.Gossip
		drawn = gossip.Sample(dp.cfg.Name, g.Seed, round, g.Fanout, gossip.Active(dp.cfg.Name, g.Seed, g.ViewSize, drawn))
	}
	// Membership piggyback: self plus this round's targets in draw order
	// — bounded by the fanout, so the payload does not grow with the
	// fleet.
	members := make([]gossip.Member, 1, 1+len(drawn))
	members[0] = dp.selfMember()
	for _, name := range drawn {
		l := dp.peers[name]
		members = append(members, gossip.Member{Name: l.name, Node: l.node, Addr: l.addr})
	}
	dp.mu.Unlock()
	sort.Strings(drawn)
	digest := gossip.Cursors(dp.engine.OriginVector())

	return roundPart[GossipArgs, GossipReply]{
		method:       MethodGossip,
		targets:      drawn,
		mergeInOrder: true,
		request: func(dp *DecisionPoint, _ uint64, ackVV map[string]uint64) linkRequest[GossipArgs] {
			// The push is diffed against this peer's last-acknowledged
			// vector; a failed or never-contacted peer has a nil vector and
			// gets everything (up to the batch bound).
			push := dp.engine.DispatchesSince(ackVV, gossip.MaxRecords)
			return linkRequest[GossipArgs]{
				args:    GossipArgs{From: dp.cfg.Name, Digest: digest, Records: push, Members: members},
				records: len(push),
			}
		},
		merge: func(dp *DecisionPoint, ctx trace.SpanContext, l *peerLink, _ linkRequest[GossipArgs], reply GossipReply) error {
			// The reply digest becomes the link's acknowledged vector, so
			// only the peer asked may sign it.
			if err := answeredBy(l.name, reply.From); err != nil {
				return err
			}
			// The pull: records the peer held that our digest lacked. The
			// reply digest is the peer's post-merge state.
			dp.absorbGossip(ctx, l.name, reply.Records, reply.Digest)
			dp.mu.Lock()
			dp.gossipPulled += len(reply.Records)
			dp.mu.Unlock()
			putRecords(reply.Records)
			return nil
		},
		compact: (*DecisionPoint).gossipCompact,
	}
}

// gossipCompact drops, for every origin this engine holds, the records
// below the minimum sequence acknowledged across the whole view. A peer
// never heard from has a nil vector and pins every origin at zero —
// conservative, and exactly why departed peers must be removed from the
// view (RemovePeer) rather than compacted around.
func (dp *DecisionPoint) gossipCompact() {
	vv := dp.engine.OriginVector()
	origins := make([]string, 0, len(vv))
	//lint:allow mapiter -- collected slice is sorted right below
	for origin := range vv {
		origins = append(origins, origin)
	}
	sort.Strings(origins)
	dp.mu.Lock()
	acked := make(map[string]uint64, len(origins))
	for _, name := range dp.peerNamesLocked() {
		gossip.MinAcked(acked, dp.peers[name].ackVV, origins)
	}
	hasPeers := len(dp.peers) > 0
	dp.mu.Unlock()
	if hasPeers {
		dp.engine.CompactOrigins(acked)
	}
}

// absorbGossip merges records gossiped by peer from, as an engine.merge
// span under ctx, and adopts digest as that link's acknowledged vector:
// a digest covers everything its sender holds — the records it pushed in
// the same message, or the ones it has just merged — so it is the basis
// for the next push diff, for compaction and, via its entry for this
// point, for the drain flush's completeness proof.
func (dp *DecisionPoint) absorbGossip(ctx trace.SpanContext, from string, records []gruber.Dispatch, digest []gossip.Cursor) {
	sp := dp.cfg.Tracer.StartSpan(ctx, trace.PhaseEngineMerge)
	st := dp.engine.MergeGossip(from, records)
	sp.End()
	vv := gossip.Vector(digest)
	dp.mu.Lock()
	if l, ok := dp.peers[from]; ok {
		// Exactly, down too: a peer that crashed since holds less.
		l.ackVV = vv
	}
	dp.gossipRelayed += st.Relayed
	dp.gossipDuplicates += st.Duplicates
	dp.mu.Unlock()
	dp.metrics.gossipResets.Add(int64(st.Resets))
}

// handleGossip serves one inbound push-pull exchange: merge the push,
// learn new members (never one this point removed), and reply with the
// post-merge digest plus the records the sender's digest was missing.
func (dp *DecisionPoint) handleGossip(ctx wire.Ctx, a GossipArgs) (GossipReply, error) {
	dp.markPeerAlive(a.From)
	for _, m := range a.Members {
		if m.Name == "" || m.Name == dp.cfg.Name {
			continue
		}
		dp.addPeer(m.Name, m.Node, m.Addr, false) // no-op for known and removed names
	}
	dp.absorbGossip(ctx.Span, a.From, a.Records, a.Digest)
	putRecords(a.Records)
	// The pull: anything we hold that the sender's digest lacks. Records
	// the sender just pushed are covered by its digest, so they never
	// echo back. The vector is this call's own: a flooding point writes
	// into the one its link adopted.
	pull := dp.engine.DispatchesSince(gossip.Vector(a.Digest), gossip.MaxRecords)
	return GossipReply{
		From:    dp.cfg.Name,
		Digest:  gossip.Cursors(dp.engine.OriginVector()),
		Records: pull,
	}, nil
}

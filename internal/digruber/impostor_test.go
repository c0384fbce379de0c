package digruber

import (
	"testing"
	"time"

	"digruber/internal/gruber"
	"digruber/internal/vtime"
	"digruber/internal/wire"
)

// impostor serves on addr under the name dp-9, as a restarted broker on
// a reused port would: its exchange and gossip replies acknowledge
// everything they were sent, and its snapshot carries a record no point
// ever brokered. It returns a function that takes it off addr.
func impostor(t *testing.T, mem *wire.Mem, clock vtime.Clock, addr string) (stop func()) {
	t.Helper()
	srv := wire.NewServer("dp-9", wire.Instant(), clock)
	wire.Handle(srv, MethodExchange, func(ExchangeArgs) (ExchangeReply, error) {
		return ExchangeReply{From: "dp-9"}, nil
	})
	wire.Handle(srv, MethodGossip, func(a GossipArgs) (GossipReply, error) {
		return GossipReply{From: "dp-9", Digest: a.Digest}, nil
	})
	wire.Handle(srv, MethodSnapshot, func(SnapshotArgs) (SnapshotReply, error) {
		forged := gruber.Dispatch{JobID: "forged", Site: "site-000", Owner: "atlas", CPUs: 1, Runtime: time.Hour, At: clock.Now()}
		return SnapshotReply{From: "dp-9", Dispatches: []gruber.Dispatch{forged}}, nil
	})
	l, err := mem.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	stop = func() { srv.Close(); l.Close() }
	t.Cleanup(stop)
	return stop
}

// linkState reads dp's health verdict on peer from its status.
func linkState(dp *DecisionPoint, peer string) string {
	for _, p := range dp.Status().Peers {
		if p.Name == peer {
			return p.State
		}
	}
	return ""
}

// TestGossipRefusesReplyFromAnotherPeer: dp-0 gossips to dp-1's address
// and dp-9 answers, acknowledging dp-0's records. The acknowledgment is
// not dp-1's, so dp-0 must keep the records for dp-1 and book the call
// as failed.
func TestGossipRefusesReplyFromAnotherPeer(t *testing.T) {
	clock := vtime.NewReal()
	h := newGossipHarness(t, 2, clock, testStatuses(50), GossipConfig{Fanout: 1, Seed: 7})
	h.dps[1].Stop()
	impostor(t, h.mem, clock, "dp-1")
	dispatchAt(h, 0, "g1")
	dispatchAt(h, 0, "g2")

	h.dps[0].ExchangeNow()
	if held := h.dps[0].Engine().DispatchesSince(nil, 0); len(held) != 2 {
		t.Fatalf("dp-0 holds %d of its 2 records after dp-9 acknowledged them for dp-1, want 2", len(held))
	}
	if st := linkState(h.dps[0], "dp-1"); st != "suspect" {
		t.Fatalf("dp-1 is %q after a reply signed dp-9, want suspect", st)
	}
}

// TestFloodRefusesReplyFromAnotherPeer is the full-mesh flood's twin of
// TestGossipRefusesReplyFromAnotherPeer: dp-0 floods to dp-1's address
// and dp-9 answers. Its reply acknowledges nothing for dp-1, so dp-0
// must keep dp-1's cursor and its records, book the call as failed, and
// flood them to the real dp-1 once it is back.
//
// dp-0's client may still hold the connection dp-9's server closed
// until its read loop notices, so the round right after dp-9 leaves
// runs while dp-1 is still down: it fails on that connection or on the
// empty address, and must not cost dp-0 its records either. Only the
// round after dp-1 is back has to deliver.
func TestFloodRefusesReplyFromAnotherPeer(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 2, clock, testStatuses(50))
	h.dps[1].Stop()
	stop := impostor(t, h.mem, clock, "dp-1")
	dispatchAt(h, 0, "f1")
	dispatchAt(h, 0, "f2")

	h.dps[0].ExchangeNow()
	if held := h.dps[0].Engine().DispatchesSince(nil, 0); len(held) != 2 {
		t.Fatalf("dp-0 holds %d of its 2 records after dp-9 acknowledged them for dp-1, want 2", len(held))
	}
	if st := linkState(h.dps[0], "dp-1"); st != "suspect" {
		t.Fatalf("dp-1 is %q after a reply signed dp-9, want suspect", st)
	}

	stop()
	h.dps[0].ExchangeNow()
	if held := h.dps[0].Engine().DispatchesSince(nil, 0); len(held) != 2 {
		t.Fatalf("dp-0 holds %d of its 2 records after a round with dp-1 down, want 2", len(held))
	}
	if err := h.dps[1].Start(); err != nil {
		t.Fatal(err)
	}
	h.dps[0].ExchangeNow()
	if got := h.dps[1].Engine().Stats().RemoteDispatches; got != 2 {
		t.Fatalf("the real dp-1 holds %d of dp-0's 2 dispatches after the next round, want 2", got)
	}
}

// TestResyncRefusesSnapshotFromAnotherPeer: dp-0 resyncs with dp-1
// first, but dp-9 answers on dp-1's address. dp-0 must import nothing of
// it, book dp-1's link as failed and take dp-2's snapshot instead.
func TestResyncRefusesSnapshotFromAnotherPeer(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 3, clock, testStatuses(50))
	h.dps[1].Stop()
	impostor(t, h.mem, clock, "dp-1")
	if err := h.dps[2].Engine().RecordDispatch(gruber.Dispatch{
		JobID: "real", Site: "site-000", Owner: "atlas", CPUs: 2, Runtime: time.Hour, At: clock.Now(),
	}); err != nil {
		t.Fatal(err)
	}

	n, donor := h.dps[0].ResyncFromPeers()
	if donor != "dp-2" || n != 1 {
		t.Fatalf("resync imported %d from %q, want 1 from dp-2", n, donor)
	}
	if pending := h.dps[0].Engine().PendingDispatches(); pending != 1 {
		t.Fatalf("dp-0 holds %d dispatches, want dp-2's one and nothing of dp-9's", pending)
	}
	if st := linkState(h.dps[0], "dp-1"); st != "suspect" {
		t.Fatalf("dp-1 is %q after a snapshot signed dp-9, want suspect", st)
	}
}

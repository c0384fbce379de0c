package digruber

import (
	"testing"
	"time"

	"digruber/internal/usla"
	"digruber/internal/vtime"
	"digruber/internal/wire"
)

func agreementXML(t *testing.T, provider, consumer, goal string, expiry time.Time) []byte {
	t.Helper()
	a := &usla.Agreement{
		Name:    "negotiated",
		Context: usla.Context{Provider: provider, Consumer: consumer, Expiration: expiry},
		Terms:   []usla.GuaranteeTerm{{Name: "cpu", Resource: usla.CPU, Goal: goal}},
	}
	data, err := a.XML()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestProposeAgreementTakesEffect(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 1, clock, testStatuses(100))
	cli := wire.NewClient(wire.ClientConfig{
		Node: "provider", ServerNode: "dp-0", Addr: h.dps[0].Addr(), Transport: h.mem, Clock: clock,
	})
	defer cli.Close()

	reply, err := wire.Call[ProposeArgs, ProposeReply](cli, MethodProposeAgreement,
		ProposeArgs{AgreementXML: agreementXML(t, "site-000", "atlas", "25+", time.Time{})}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reply.EntriesAdded != 1 {
		t.Fatalf("entries added = %d", reply.EntriesAdded)
	}
	// The engine now enforces the cap on queries.
	loads := h.dps[0].Engine().SiteLoads(usla.MustParsePath("atlas"), 1)
	if loads[0].Headroom != 25 {
		t.Fatalf("headroom = %v, want 25 (25%% of 100)", loads[0].Headroom)
	}
}

func TestProposeExpiredAgreementIsNoop(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 1, clock, testStatuses(100))
	cli := wire.NewClient(wire.ClientConfig{
		Node: "p", ServerNode: "dp-0", Addr: h.dps[0].Addr(), Transport: h.mem, Clock: clock,
	})
	defer cli.Close()
	past := time.Now().Add(-time.Hour)
	reply, err := wire.Call[ProposeArgs, ProposeReply](cli, MethodProposeAgreement,
		ProposeArgs{AgreementXML: agreementXML(t, "site-000", "cms", "10+", past)}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if reply.EntriesAdded != 0 {
		t.Fatal("expired agreement added entries")
	}
}

func TestProposeBadAgreementRejected(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 1, clock, testStatuses(100))
	cli := wire.NewClient(wire.ClientConfig{
		Node: "p", ServerNode: "dp-0", Addr: h.dps[0].Addr(), Transport: h.mem, Clock: clock,
	})
	defer cli.Close()
	if _, err := wire.Call[ProposeArgs, ProposeReply](cli, MethodProposeAgreement,
		ProposeArgs{AgreementXML: []byte("<not valid")}, time.Second); err == nil {
		t.Fatal("malformed XML accepted")
	}
	if _, err := wire.Call[ProposeArgs, ProposeReply](cli, MethodProposeAgreement,
		ProposeArgs{AgreementXML: agreementXML(t, "site-000", "bad..consumer", "10+", time.Time{})}, time.Second); err == nil {
		t.Fatal("bad consumer accepted")
	}
}

func TestProposeConflictingAgreementWarns(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 1, clock, testStatuses(100))
	cli := wire.NewClient(wire.ClientConfig{
		Node: "p", ServerNode: "dp-0", Addr: h.dps[0].Addr(), Transport: h.mem, Clock: clock,
	})
	defer cli.Close()
	// Lower limit above upper limit → validation warning, not rejection
	// (the entries are individually legal).
	wire.Call[ProposeArgs, ProposeReply](cli, MethodProposeAgreement,
		ProposeArgs{AgreementXML: agreementXML(t, "site-000", "ligo", "10+", time.Time{})}, time.Second)
	reply, err := wire.Call[ProposeArgs, ProposeReply](cli, MethodProposeAgreement,
		ProposeArgs{AgreementXML: agreementXML(t, "site-000", "ligo", "50-", time.Time{})}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply.Warnings) == 0 {
		t.Fatal("conflicting limits produced no warnings")
	}
}

func TestPublishedAgreementsRoundTrip(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 1, clock, testStatuses(100))
	cli := wire.NewClient(wire.ClientConfig{
		Node: "consumer", ServerNode: "dp-0", Addr: h.dps[0].Addr(), Transport: h.mem, Clock: clock,
	})
	defer cli.Close()
	wire.Call[ProposeArgs, ProposeReply](cli, MethodProposeAgreement,
		ProposeArgs{AgreementXML: agreementXML(t, "site-000", "atlas", "40+", time.Time{})}, time.Second)
	wire.Call[ProposeArgs, ProposeReply](cli, MethodProposeAgreement,
		ProposeArgs{AgreementXML: agreementXML(t, "site-001", "cms", "30", time.Time{})}, time.Second)

	all, err := wire.Call[PublishedArgs, PublishedReply](cli, MethodPublishedAgreements, PublishedArgs{}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(all.AgreementsXML) != 2 {
		t.Fatalf("published %d agreements, want 2", len(all.AgreementsXML))
	}
	// Consumers can parse what providers publish.
	a, err := usla.ParseAgreementXML(all.AgreementsXML[0])
	if err != nil {
		t.Fatal(err)
	}
	if a.Context.Provider == "" || len(a.Terms) == 0 {
		t.Fatalf("published agreement incomplete: %+v", a)
	}
	// Provider filter.
	one, err := wire.Call[PublishedArgs, PublishedReply](cli, MethodPublishedAgreements,
		PublishedArgs{Provider: "site-001"}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(one.AgreementsXML) != 1 {
		t.Fatalf("filtered publish returned %d agreements", len(one.AgreementsXML))
	}
}

func TestProposedUSLADisseminatesToPeers(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarnessStrategy(t, 2, clock, testStatuses(100), UsageAndUSLAs)
	cli := wire.NewClient(wire.ClientConfig{
		Node: "p", ServerNode: "dp-0", Addr: h.dps[0].Addr(), Transport: h.mem, Clock: clock,
	})
	defer cli.Close()
	if _, err := wire.Call[ProposeArgs, ProposeReply](cli, MethodProposeAgreement,
		ProposeArgs{AgreementXML: agreementXML(t, "site-000", "atlas", "15+", time.Time{})}, time.Second); err != nil {
		t.Fatal(err)
	}
	h.dps[0].ExchangeNow()
	l := h.dps[1].cfg.Policies.LimitsFor("site-000", usla.MustParsePath("atlas"), usla.CPU)
	if l.Upper != 15 {
		t.Fatalf("peer upper = %v, want 15 after dissemination", l.Upper)
	}
}

package digruber

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"digruber/internal/netsim"
	"digruber/internal/usla"
	"digruber/internal/vtime"
	"digruber/internal/wire"
)

// TestNoUSLAQualifiedSiteDegradesToAnyFree covers the middle degradation
// tier: the broker answers, USLAs disqualify every site, but free CPUs
// exist — the client picks randomly among reported free sites and the
// request still counts as handled.
func TestNoUSLAQualifiedSiteDegradesToAnyFree(t *testing.T) {
	clock := vtime.NewReal()
	mem := wire.NewMem()
	ps := usla.NewPolicySet()
	entries, err := usla.ParseTextString("* atlas cpu 0+") // hard zero cap
	if err != nil {
		t.Fatal(err)
	}
	ps.AddAll(entries)
	dp, err := New(Config{
		Name: "dp-z", Addr: "dp-z", Transport: mem, Clock: clock,
		Profile: wire.Instant(), Policies: ps,
	})
	if err != nil {
		t.Fatal(err)
	}
	dp.Engine().UpdateSites(testStatuses(40, 70), clock.Now())
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()

	c, err := NewClient(ClientConfig{
		Name: "c", DPName: "dp-z", DPNode: "dp-z", DPAddr: "dp-z",
		Transport: mem, Clock: clock, Timeout: 2 * time.Second,
		RNG: netsim.Stream(1, "anyfree"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	dec := c.Schedule(testJob("j1"))
	if dec.Err != nil {
		t.Fatal(dec.Err)
	}
	if !dec.Handled {
		t.Fatal("broker answered; decision should count as handled")
	}
	if dec.Site != "site-000" && dec.Site != "site-001" {
		t.Fatalf("site = %q, want one of the reported free sites", dec.Site)
	}
}

// TestNoFreeSitesAtAllFallsBackToStaticList covers the deepest tier:
// broker answers, nothing has free CPUs, client uses its static list.
func TestNoFreeSitesAtAllFallsBackToStaticList(t *testing.T) {
	clock := vtime.NewReal()
	h := newHarness(t, 1, clock, testStatuses(0, 0, 0))
	c := h.client(0, 0, []string{"static-site"})
	dec := c.Schedule(testJob("j1"))
	if dec.Err != nil {
		t.Fatal(dec.Err)
	}
	if dec.Site != "static-site" || !dec.Handled {
		t.Fatalf("decision = %+v, want handled static fallback", dec)
	}
}

// TestClientSurvivesServerRestart exercises the wire client's reconnect
// path: the decision point's listener dies and a replacement binds the
// same address; the next Schedule dials fresh and succeeds.
func TestClientSurvivesServerRestart(t *testing.T) {
	clock := vtime.NewReal()
	mem := wire.NewMem()
	mk := func() *DecisionPoint {
		dp, err := New(Config{
			Name: "dp-r", Addr: "dp-r", Transport: mem, Clock: clock,
			Profile: wire.Instant(), Strategy: NoExchange,
		})
		if err != nil {
			t.Fatal(err)
		}
		dp.Engine().UpdateSites(testStatuses(50), clock.Now())
		if err := dp.Start(); err != nil {
			t.Fatal(err)
		}
		return dp
	}
	dp1 := mk()
	c, err := NewClient(ClientConfig{
		Name: "c", DPName: "dp-r", DPNode: "dp-r", DPAddr: "dp-r",
		Transport: mem, Clock: clock, Timeout: 2 * time.Second,
		FallbackSites: []string{"fb"},
		RNG:           netsim.Stream(1, "restart"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if dec := c.Schedule(testJob("a")); dec.Err != nil || !dec.Handled {
		t.Fatalf("first schedule: %+v", dec)
	}
	dp1.Stop()
	// The very next call may land on the dead connection and degrade to
	// fallback — that's the graceful path, not an error.
	dec := c.Schedule(testJob("b"))
	if dec.Err != nil {
		t.Fatalf("schedule against dead DP errored: %v", dec.Err)
	}
	dp2 := mk()
	defer dp2.Stop()
	// Reconnect: eventually handled again.
	handled := false
	for i := 0; i < 10 && !handled; i++ {
		dec := c.Schedule(testJob("c" + string(rune('0'+i))))
		handled = dec.Handled
	}
	if !handled {
		t.Fatal("client never reconnected to the restarted decision point")
	}
}

// TestSelectSiteSkipsExcludedSites: a re-plan avoids the excluded sites
// at every degradation tier — among the free sites the broker reports,
// and in the random fallback over the static list — while the fallback
// stream is drawn from by re-plans and decisions on several goroutines at once.
func TestSelectSiteSkipsExcludedSites(t *testing.T) {
	clock := vtime.NewReal()
	mem := wire.NewMem()
	ps := usla.NewPolicySet()
	entries, err := usla.ParseTextString("* atlas cpu 0+") // no site qualifies: pick any free one
	if err != nil {
		t.Fatal(err)
	}
	ps.AddAll(entries)
	dp, err := New(Config{Name: "dp-x", Addr: "dp-x", Transport: mem, Clock: clock, Profile: wire.Instant(), Policies: ps})
	if err != nil {
		t.Fatal(err)
	}
	dp.Engine().UpdateSites(testStatuses(40, 100, 90), clock.Now())
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	defer dp.Stop()
	answered, err := NewClient(ClientConfig{Name: "c", DPName: "dp-x", DPNode: "dp-x", DPAddr: "dp-x",
		Transport: mem, Clock: clock, Timeout: 2 * time.Second, RNG: netsim.Stream(1, "exclude")})
	if err != nil {
		t.Fatal(err)
	}
	defer answered.Close()
	unanswered, err := NewClient(ClientConfig{Name: "u", DPAddr: "nowhere", Transport: mem, Clock: clock,
		Timeout: 20 * time.Millisecond, FallbackSites: []string{"site-a", "site-b", "site-c"}, RNG: netsim.Stream(1, "exclude")})
	if err != nil {
		t.Fatal(err)
	}
	defer unanswered.Close()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				id := fmt.Sprintf("j-%d-%d", g, i)
				answered.Schedule(testJob(id + "-first"))
				if site, err := answered.SelectSite(testJob(id), map[string]bool{"site-000": true, "site-002": true}); err != nil || site != "site-001" {
					t.Errorf("broker's free sites less two excluded: %q, %v; want site-001", site, err)
				}
				if site, err := unanswered.SelectSite(testJob(id), map[string]bool{"site-a": true, "site-c": true}); err != nil || site != "site-b" {
					t.Errorf("static list less two excluded: %q, %v; want site-b", site, err)
				}
			}
		}()
	}
	wg.Wait()
	if site, err := unanswered.SelectSite(testJob("all"), map[string]bool{"site-a": true, "site-b": true, "site-c": true}); err == nil {
		t.Errorf("every site excluded, yet SelectSite picked %q", site)
	}
}

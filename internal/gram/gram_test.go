package gram

import (
	"testing"
	"time"

	"digruber/internal/grid"
	"digruber/internal/netsim"
	"digruber/internal/usla"
	"digruber/internal/vtime"
)

func testGrid(t *testing.T) *grid.Grid {
	t.Helper()
	g := grid.New(vtime.NewReal())
	if _, err := g.AddSite(grid.SiteConfig{Name: "s0", Clusters: []int{4}}); err != nil {
		t.Fatal(err)
	}
	return g
}

func job(id string) *grid.Job {
	return &grid.Job{ID: grid.JobID(id), Owner: usla.MustParsePath("atlas"), CPUs: 1, Runtime: time.Millisecond, SubmitHost: "host"}
}

func TestSubmitReachesSite(t *testing.T) {
	g := testGrid(t)
	s := NewSubmitter(g, nil, vtime.NewReal(), Config{})
	ticket, err := s.Submit("host", "s0", job("j1"))
	if err != nil {
		t.Fatal(err)
	}
	out := <-ticket.Done()
	if out.Failed || out.Site != "s0" {
		t.Fatalf("outcome = %+v", out)
	}
}

func TestSubmitUnknownSite(t *testing.T) {
	g := testGrid(t)
	s := NewSubmitter(g, nil, vtime.NewReal(), Config{})
	if _, err := s.Submit("host", "ghost", job("j1")); err == nil {
		t.Fatal("unknown site accepted")
	}
}

func TestSubmitLatencyPaid(t *testing.T) {
	g := testGrid(t)
	network := netsim.New(1, netsim.Profile{Name: "t", MedianLatency: 20 * time.Millisecond})
	s := NewSubmitter(g, network, vtime.NewReal(), Config{SubmitOverhead: 15 * time.Millisecond})
	start := time.Now()
	if _, err := s.Submit("host", "s0", job("j")); err != nil {
		t.Fatal(err)
	}
	if e := time.Since(start); e < 30*time.Millisecond {
		t.Fatalf("submit took %v, want ≥ latency+overhead", e)
	}
}

// A site's refusal reaches the submitting host as gram's error.
func TestSiteRejectionSurfaces(t *testing.T) {
	g := testGrid(t)
	s := NewSubmitter(g, nil, vtime.NewReal(), Config{})
	big := job("j")
	big.CPUs = 5 // s0 has 4
	if _, err := s.Submit("host", "s0", big); err == nil {
		t.Fatal("site rejection not surfaced through GRAM")
	}
}

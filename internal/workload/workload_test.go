package workload

import (
	"testing"
	"time"

	"digruber/internal/usla"
)

func TestHostOwnerCoversAllVOsAndGroups(t *testing.T) {
	cfg := Default()
	g := NewGenerator(cfg)
	vos := map[string]bool{}
	groups := map[string]bool{}
	for i := 0; i < cfg.Hosts; i++ {
		p := g.HostOwner(i)
		if p.VO == "" || p.Group == "" {
			t.Fatalf("host %d owner = %v", i, p)
		}
		vos[p.VO] = true
		groups[p.VO+"."+p.Group] = true
	}
	if len(vos) != VOs {
		t.Fatalf("workload touches %d VOs, want %d", len(vos), VOs)
	}
	// 120 hosts over 10 VOs → 12 hosts per VO → 2 groups per VO hit at
	// least; exact coverage is round-robin.
	if len(groups) < VOs {
		t.Fatalf("only %d distinct groups", len(groups))
	}
}

func TestNextJobDeterministicAndUnique(t *testing.T) {
	g1 := NewGenerator(Default())
	g2 := NewGenerator(Default())
	seen := map[string]bool{}
	for host := 0; host < 5; host++ {
		for k := 0; k < 20; k++ {
			j1, err1 := g1.NextJob(host)
			j2, err2 := g2.NextJob(host)
			if err1 != nil || err2 != nil {
				t.Fatalf("NextJob errors: %v, %v", err1, err2)
			}
			if j1.ID != j2.ID || j1.Runtime != j2.Runtime {
				t.Fatal("generator not deterministic")
			}
			if seen[string(j1.ID)] {
				t.Fatalf("duplicate job ID %s", j1.ID)
			}
			seen[string(j1.ID)] = true
			if j1.Owner != g1.HostOwner(host) {
				t.Fatal("job owner != host owner")
			}
			if j1.Runtime < time.Second {
				t.Fatalf("runtime %v below floor", j1.Runtime)
			}
		}
	}
}

func TestRuntimeDistributionSpread(t *testing.T) {
	g := NewGenerator(Default())
	var min, max time.Duration = time.Hour * 1000, 0
	var sum time.Duration
	const n = 2000
	for i := 0; i < n; i++ {
		j, err := g.NextJob(0)
		if err != nil {
			t.Fatal(err)
		}
		r := j.Runtime
		if r < min {
			min = r
		}
		if r > max {
			max = r
		}
		sum += r
	}
	if max < 4*min {
		t.Fatalf("log-normal runtimes not spread: min=%v max=%v", min, max)
	}
	mean := sum / n
	want := Default().MeanRuntime
	// Log-normal mean is above the median; allow a generous band.
	if mean < want/2 || mean > want*3 {
		t.Fatalf("mean runtime %v far from configured %v", mean, want)
	}
}

func TestNextJobErrorsOnBadHost(t *testing.T) {
	g := NewGenerator(Default())
	if _, err := g.NextJob(-1); err == nil {
		t.Fatal("negative host accepted")
	}
	if _, err := g.NextJob(Default().Hosts); err == nil {
		t.Fatal("host == Hosts accepted")
	}
	if _, err := g.NextJob(0); err != nil {
		t.Fatalf("valid host rejected: %v", err)
	}
}

func TestPoliciesShape(t *testing.T) {
	cfg := Default()
	ps, err := Policies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 10 VOs × (target+upper) + 100 groups × target = 120 entries.
	if got := len(ps.Entries()); got != VOs*2+VOs*GroupsPerVO {
		t.Fatalf("policy entries = %d", got)
	}
	if errs := ps.Validate(); len(errs) != 0 {
		t.Fatalf("generated policies invalid: %v", errs)
	}
	vo := usla.MustParsePath(VOName(0))
	l := ps.LimitsFor("any-site", vo, usla.CPU)
	if l.Target != 10 || l.Upper != 20 {
		t.Fatalf("VO limits = %+v, want target 10 upper 20", l)
	}
	group := usla.Path{VO: VOName(0), Group: GroupName(0)}
	ent := ps.Entitlement("any-site", group, usla.CPU, 30000)
	// Group target: 10% of VO's 10% = 1% of 30000 = 300 CPUs.
	if ent.Target != 300 {
		t.Fatalf("group target entitlement = %v, want 300", ent.Target)
	}
}

func TestPoliciesSumToWholeGrid(t *testing.T) {
	cfg := Default()
	ps, err := Policies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for v := 0; v < VOs; v++ {
		l := ps.LimitsFor(usla.AnyProvider, usla.Path{VO: VOName(v)}, usla.CPU)
		total += l.Target
	}
	if total < 99.9 || total > 100.1 {
		t.Fatalf("VO targets sum to %v%%, want 100%%", total)
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	g := NewGenerator(Config{Hosts: 2})
	j, err := g.NextJob(1)
	if err != nil {
		t.Fatal(err)
	}
	if j.CPUs != 1 || j.Runtime <= 0 {
		t.Fatalf("job from defaulted config: %+v", j)
	}
}

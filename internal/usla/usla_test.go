package usla

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestParseShare(t *testing.T) {
	cases := []struct {
		in   string
		want Share
	}{
		{"30", Share{30, Target}},
		{"30+", Share{30, UpperLimit}},
		{"30-", Share{30, LowerLimit}},
		{"12.5", Share{12.5, Target}},
		{"0", Share{0, Target}},
		{"100+", Share{100, UpperLimit}},
		{" 45 ", Share{45, Target}},
	}
	for _, c := range cases {
		got, err := ParseShare(c.in)
		if err != nil {
			t.Errorf("ParseShare(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseShare(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseShareErrors(t *testing.T) {
	for _, in := range []string{"", "abc", "101", "-5", "30 +", "++", "30%"} {
		if _, err := ParseShare(in); err == nil {
			t.Errorf("ParseShare(%q) succeeded, want error", in)
		}
	}
}

func TestShareRoundTrip(t *testing.T) {
	f := func(pct uint8, kind uint8) bool {
		s := Share{Percent: float64(pct % 101), Kind: ShareKind(kind % 3)}
		parsed, err := ParseShare(s.String())
		return err == nil && parsed == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParsePath(t *testing.T) {
	cases := []struct {
		in    string
		want  Path
		depth int
	}{
		{"atlas", Path{VO: "atlas"}, 1},
		{"atlas.higgs", Path{VO: "atlas", Group: "higgs"}, 2},
		{"atlas.higgs.alice", Path{VO: "atlas", Group: "higgs", User: "alice"}, 3},
	}
	for _, c := range cases {
		got, err := ParsePath(c.in)
		if err != nil {
			t.Fatalf("ParsePath(%q): %v", c.in, err)
		}
		if got != c.want || got.Depth() != c.depth {
			t.Errorf("ParsePath(%q) = %v depth %d", c.in, got, got.Depth())
		}
		if got.String() != c.in {
			t.Errorf("round trip %q -> %q", c.in, got.String())
		}
	}
}

func TestParsePathErrors(t *testing.T) {
	for _, in := range []string{"", ".", "a.", ".b", "a.b.c.d", "a..c"} {
		if _, err := ParsePath(in); err == nil {
			t.Errorf("ParsePath(%q) succeeded, want error", in)
		}
	}
}

func TestPathPrefixesAndParent(t *testing.T) {
	p := MustParsePath("atlas.higgs.alice")
	pre := p.Prefixes()
	if len(pre) != 3 || pre[0].String() != "atlas" || pre[1].String() != "atlas.higgs" || pre[2] != p {
		t.Fatalf("Prefixes = %v", pre)
	}
	if p.Parent().String() != "atlas.higgs" {
		t.Fatalf("Parent = %v", p.Parent())
	}
	if Path.Parent(MustParsePath("atlas")) != (Path{}) {
		t.Fatal("VO parent should be zero path")
	}
	if !p.HasPrefix(MustParsePath("atlas")) || !p.HasPrefix(MustParsePath("atlas.higgs")) || !p.HasPrefix(p) {
		t.Fatal("HasPrefix false negative")
	}
	if p.HasPrefix(MustParsePath("cms")) || p.HasPrefix(MustParsePath("atlas.susy")) {
		t.Fatal("HasPrefix false positive")
	}
}

func mustEntries(t *testing.T, text string) []Entry {
	t.Helper()
	entries, err := ParseTextString(text)
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

func mustSet(t *testing.T, text string) *PolicySet {
	t.Helper()
	ps := NewPolicySet()
	if err := ps.AddAll(mustEntries(t, text)); err != nil {
		t.Fatal(err)
	}
	return ps
}

func TestParseTextBasics(t *testing.T) {
	entries := mustEntries(t, `
# comment line
*         atlas        cpu  30
site-004  atlas.higgs  cpu  50+   # trailing comment
*         cms          storage 20-
`)
	if len(entries) != 3 {
		t.Fatalf("parsed %d entries, want 3", len(entries))
	}
	if entries[1].Provider != "site-004" || entries[1].Share.Kind != UpperLimit {
		t.Fatalf("entry[1] = %+v", entries[1])
	}
	if entries[2].Resource != Storage || entries[2].Share.Kind != LowerLimit {
		t.Fatalf("entry[2] = %+v", entries[2])
	}
}

func TestParseTextErrors(t *testing.T) {
	bad := []string{
		"* atlas cpu",          // missing share
		"* atlas cpu 30 extra", // extra field
		"* atlas disk 30",      // unknown resource
		"* atlas cpu 130",      // out of range
		"* a.b.c.d cpu 10",     // path too deep
	}
	for _, line := range bad {
		if _, err := ParseTextString(line); err == nil {
			t.Errorf("ParseTextString(%q) succeeded, want error", line)
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	in := mustEntries(t, "* atlas cpu 30\nsite-001 atlas.higgs cpu 50+\n* cms network 10-")
	var b strings.Builder
	if err := WriteText(&b, in); err != nil {
		t.Fatal(err)
	}
	out := mustEntries(t, b.String())
	if len(out) != len(in) {
		t.Fatalf("round trip count %d != %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Fatalf("entry %d: %v != %v", i, in[i], out[i])
		}
	}
}

func TestLimitsForSpecificity(t *testing.T) {
	ps := mustSet(t, `
*        atlas  cpu  30
site-9   atlas  cpu  60
`)
	if l := ps.LimitsFor("site-1", MustParsePath("atlas"), CPU); l.Target != 30 {
		t.Fatalf("wildcard target = %v, want 30", l.Target)
	}
	if l := ps.LimitsFor("site-9", MustParsePath("atlas"), CPU); l.Target != 60 {
		t.Fatalf("site-specific target = %v, want 60 (override)", l.Target)
	}
}

func TestLimitsDefaults(t *testing.T) {
	ps := NewPolicySet()
	l := ps.LimitsFor("anywhere", MustParsePath("unknown"), CPU)
	if l.Target != 100 || l.Upper != 100 || l.Lower != 0 || l.Explicit {
		t.Fatalf("default limits = %+v", l)
	}
	// Upper-only entry: target defaults to the cap.
	ps2 := mustSet(t, "* atlas cpu 40+")
	l2 := ps2.LimitsFor("s", MustParsePath("atlas"), CPU)
	if l2.Upper != 40 || l2.Target != 40 || !l2.Explicit {
		t.Fatalf("upper-only limits = %+v", l2)
	}
}

func TestLimitsKindsAccumulate(t *testing.T) {
	ps := mustSet(t, `
* atlas cpu 30
* atlas cpu 50+
* atlas cpu 10-
`)
	l := ps.LimitsFor("s", MustParsePath("atlas"), CPU)
	if l.Target != 30 || l.Upper != 50 || l.Lower != 10 {
		t.Fatalf("limits = %+v", l)
	}
}

func TestLaterEntryReplaces(t *testing.T) {
	ps := mustSet(t, "* atlas cpu 30")
	if err := ps.Add(Entry{Provider: "*", Consumer: MustParsePath("atlas"), Resource: CPU, Share: Share{45, Target}}); err != nil {
		t.Fatal(err)
	}
	if l := ps.LimitsFor("s", MustParsePath("atlas"), CPU); l.Target != 45 {
		t.Fatalf("target after update = %v, want 45", l.Target)
	}
}

func TestEntitlementRecursive(t *testing.T) {
	// VO gets 40% of the site; group gets 50% of the VO; user 25% of group.
	ps := mustSet(t, `
* atlas             cpu 40+
* atlas.higgs       cpu 50+
* atlas.higgs.alice cpu 25+
`)
	ent := ps.Entitlement("s", MustParsePath("atlas.higgs.alice"), CPU, 1000)
	if ent.Upper != 1000*0.40*0.50*0.25 {
		t.Fatalf("user upper = %v, want 50", ent.Upper)
	}
	entG := ps.Entitlement("s", MustParsePath("atlas.higgs"), CPU, 1000)
	if entG.Upper != 200 {
		t.Fatalf("group upper = %v, want 200", entG.Upper)
	}
}

// TestEvaluatorPaperExample runs the paper's VO → group → user example
// through every entry point of the shared evaluator — Headroom, TargetGap,
// Entitlement, and Resolve + Evaluate as a scheduling query uses it — at
// a provider the wildcard rules cover and at one with its own overrides,
// against values worked by hand. All products here are exact in binary
// floating point (halves, quarters and a 40% of 1000), so == is the test.
func TestEvaluatorPaperExample(t *testing.T) {
	ps := mustSet(t, `
*       atlas             cpu 40+
*       atlas             cpu 30
*       atlas.higgs       cpu 50
*       atlas.higgs       cpu 10-
*       atlas.higgs.alice cpu 25+
site-9  atlas             cpu 50+
site-9  atlas.higgs       cpu 75+
site-9  atlas.higgs.alice cpu 50
`)
	usage := map[Path]float64{
		{VO: "atlas"}:                                380,
		{VO: "atlas", Group: "higgs"}:                100,
		{VO: "atlas", Group: "higgs", User: "alice"}: 30,
	}
	uf := func(p Path) float64 { return usage[p] }
	for _, tc := range []struct {
		provider, owner string
		ent             Entitlement
		headroom, gap   float64
	}{
		// VO: cap 400, target 300, no lower limit below the site's all.
		{"site-1", "atlas", Entitlement{Target: 300, Upper: 400, Lower: 0}, 20, -80},
		// Group: no cap of its own (100% of the VO's 400), target half the
		// VO's 300, lower 10% of the VO's 0; the VO's 20 left binds.
		{"site-1", "atlas.higgs", Entitlement{Target: 150, Upper: 400, Lower: 0}, 20, 50},
		// User: cap 25% of the group's 400 = 100, target defaults to the cap
		// (25% of the group's 150 = 37.5); the VO level still binds.
		{"site-1", "atlas.higgs.alice", Entitlement{Target: 37.5, Upper: 100, Lower: 0}, 20, 7.5},
		// site-9 overrides per kind: the VO cap becomes 500 (its target stays
		// the wildcard 30%), the group gets a 75% cap (375) beside its
		// wildcard target, the user a 50% target beside its wildcard cap.
		{"site-9", "atlas", Entitlement{Target: 300, Upper: 500, Lower: 0}, 120, -80},
		{"site-9", "atlas.higgs", Entitlement{Target: 150, Upper: 375, Lower: 0}, 120, 50},
		{"site-9", "atlas.higgs.alice", Entitlement{Target: 75, Upper: 93.75, Lower: 0}, 63.75, 45},
		// A consumer no entry names: everything is the site.
		{"site-1", "cms.top", Entitlement{Target: 1000, Upper: 1000, Lower: 0}, 1000, 1000},
	} {
		owner := MustParsePath(tc.owner)
		if ent := ps.Entitlement(tc.provider, owner, CPU, 1000); ent != tc.ent {
			t.Errorf("%s at %s: entitlement %+v, want %+v", tc.owner, tc.provider, ent, tc.ent)
		}
		if room := ps.Headroom(tc.provider, owner, CPU, 1000, uf); room != tc.headroom {
			t.Errorf("%s at %s: headroom %v, want %v", tc.owner, tc.provider, room, tc.headroom)
		}
		if gap := ps.TargetGap(tc.provider, owner, CPU, 1000, uf); gap != tc.gap {
			t.Errorf("%s at %s: target gap %v, want %v", tc.owner, tc.provider, gap, tc.gap)
		}
		pol := ps.Resolve(owner, CPU)
		levels, depth := owner.Levels()
		var used [3]float64
		for i, l := range levels[:depth] {
			used[i] = usage[l]
		}
		if ent, room := pol.Evaluate(tc.provider, 1000, used); ent != tc.ent || room != tc.headroom {
			t.Errorf("%s at %s: Evaluate = %+v, %v, want %+v, %v", tc.owner, tc.provider, ent, room, tc.ent, tc.headroom)
		}
	}
	// A resolved Policy is a point-in-time answer; the next Resolve sees
	// an Add made since.
	before := ps.Resolve(MustParsePath("atlas"), CPU)
	if err := ps.Add(Entry{Provider: "site-1", Consumer: Path{VO: "atlas"}, Resource: CPU, Share: Share{10, UpperLimit}}); err != nil {
		t.Fatal(err)
	}
	after := ps.Resolve(MustParsePath("atlas"), CPU)
	if ent, _ := before.Evaluate("site-1", 1000, [3]float64{}); ent.Upper != 400 {
		t.Errorf("policy resolved before the Add moved: upper %v, want 400", ent.Upper)
	}
	if ent, _ := after.Evaluate("site-1", 1000, [3]float64{}); ent.Upper != 100 {
		t.Errorf("policy resolved after the Add: upper %v, want 100", ent.Upper)
	}
}

func TestHeadroomRespectsEveryLevel(t *testing.T) {
	ps := mustSet(t, `
* atlas       cpu 50+
* atlas.higgs cpu 50+
`)
	capacity := 100.0
	// VO cap = 50, group cap = 25.
	usage := map[string]float64{"atlas": 48, "atlas.higgs": 10}
	uf := func(p Path) float64 { return usage[p.String()] }
	room := ps.Headroom("s", MustParsePath("atlas.higgs"), CPU, capacity, uf)
	// Group headroom would be 15, but the VO level only has 2 left.
	if room != 2 {
		t.Fatalf("headroom = %v, want 2 (VO-level binding)", room)
	}
}

func TestHeadroomClampsAtZero(t *testing.T) {
	ps := mustSet(t, "* atlas cpu 10+")
	uf := func(Path) float64 { return 50 }
	if room := ps.Headroom("s", MustParsePath("atlas"), CPU, 100, uf); room != 0 {
		t.Fatalf("over-cap headroom = %v, want 0", room)
	}
}

func TestTargetGapSign(t *testing.T) {
	ps := mustSet(t, "* atlas cpu 30")
	under := func(Path) float64 { return 10 }
	over := func(Path) float64 { return 50 }
	if gap := ps.TargetGap("s", MustParsePath("atlas"), CPU, 100, under); gap != 20 {
		t.Fatalf("under-target gap = %v, want 20", gap)
	}
	if gap := ps.TargetGap("s", MustParsePath("atlas"), CPU, 100, over); gap != -20 {
		t.Fatalf("over-target gap = %v, want -20", gap)
	}
}

func TestAllowed(t *testing.T) {
	ps := mustSet(t, "* atlas cpu 20+")
	usage := 15.0
	uf := func(Path) float64 { return usage }
	if !ps.Allowed("s", MustParsePath("atlas"), CPU, 100, uf, 5) {
		t.Fatal("demand exactly at headroom should be allowed")
	}
	if ps.Allowed("s", MustParsePath("atlas"), CPU, 100, uf, 6) {
		t.Fatal("demand above headroom should be denied")
	}
}

func TestOpportunisticDefaultAllowsIdleResources(t *testing.T) {
	// No upper limit: the paper's model is opportunistic — free resources
	// are acquired when available.
	ps := mustSet(t, "* atlas cpu 30")
	uf := func(Path) float64 { return 90 }
	if !ps.Allowed("s", MustParsePath("atlas"), CPU, 100, uf, 10) {
		t.Fatal("target-only VO should be able to use idle resources past target")
	}
}

func TestValidateCatchesProblems(t *testing.T) {
	ps := mustSet(t, `
* atlas cpu 60
* cms   cpu 60
* osg   cpu 30-
* osg   cpu 20+
`)
	errs := ps.Validate()
	if len(errs) != 2 {
		t.Fatalf("Validate returned %d errors, want 2: %v", len(errs), errs)
	}
}

func TestValidateCleanSet(t *testing.T) {
	ps := mustSet(t, `
* atlas cpu 50
* cms   cpu 30
* atlas.higgs cpu 60
* atlas.susy  cpu 40
`)
	if errs := ps.Validate(); len(errs) != 0 {
		t.Fatalf("unexpected validation errors: %v", errs)
	}
}

func TestPolicySetConcurrentAccess(t *testing.T) {
	ps := mustSet(t, "* atlas cpu 30")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			_ = ps.Add(Entry{Provider: "*", Consumer: MustParsePath("cms"), Resource: CPU, Share: Share{10, Target}})
		}
	}()
	uf := func(Path) float64 { return 0 }
	for i := 0; i < 500; i++ {
		ps.Headroom("s", MustParsePath("atlas"), CPU, 100, uf)
		ps.Len()
	}
	<-done
}

func TestEntitlementPropertyMonotoneInCapacity(t *testing.T) {
	ps := mustSet(t, "* atlas cpu 40+\n* atlas.b cpu 50+")
	f := func(c1, c2 uint16) bool {
		lo, hi := float64(c1), float64(c2)
		if lo > hi {
			lo, hi = hi, lo
		}
		p := MustParsePath("atlas.b")
		return ps.Entitlement("s", p, CPU, lo).Upper <= ps.Entitlement("s", p, CPU, hi).Upper
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

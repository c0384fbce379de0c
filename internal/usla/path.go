package usla

import (
	"fmt"
	"strings"
)

// Path names a consumer at one of the three levels of the paper's
// recursive consumer hierarchy: a virtual organization, a group within a
// VO, or a user within a group. Empty trailing fields shorten the path:
// {VO: "atlas"} is VO-level, {VO: "atlas", Group: "higgs"} is group-level.
type Path struct {
	VO    string
	Group string
	User  string
}

// ParsePath parses "vo", "vo.group" or "vo.group.user". It allocates
// nothing: the levels are substrings of s.
func ParsePath(s string) (Path, error) {
	var levels [3]string
	n := 0
	for rest, more := strings.TrimSpace(s), true; more; n++ {
		var level string
		level, rest, more = strings.Cut(rest, ".")
		if level == "" {
			return Path{}, fmt.Errorf("usla: bad consumer path %q", s)
		}
		if n < len(levels) {
			levels[n] = level
		}
	}
	if n > len(levels) {
		return Path{}, fmt.Errorf("usla: consumer path %q has %d levels, max 3", s, n)
	}
	return Path{VO: levels[0], Group: levels[1], User: levels[2]}, nil
}

// MustParsePath is ParsePath that panics on error, for literals in tests
// and examples.
func MustParsePath(s string) Path {
	p, err := ParsePath(s)
	if err != nil {
		//lint:allow nopanic -- documented Must-helper for compile-time path literals
		panic(err)
	}
	return p
}

// String renders the dotted form.
func (p Path) String() string {
	s := p.VO
	if p.Group != "" {
		s += "." + p.Group
		if p.User != "" {
			s += "." + p.User
		}
	}
	return s
}

// Depth reports 1 for VO, 2 for group, 3 for user, 0 for the zero Path.
func (p Path) Depth() int {
	switch {
	case p.VO == "":
		return 0
	case p.Group == "":
		return 1
	case p.User == "":
		return 2
	default:
		return 3
	}
}

// Parent returns the path one level up ({} for a VO-level path).
func (p Path) Parent() Path {
	switch p.Depth() {
	case 3:
		return Path{VO: p.VO, Group: p.Group}
	case 2:
		return Path{VO: p.VO}
	default:
		return Path{}
	}
}

// Prefixes returns the chain from VO level down to p itself, e.g.
// a.b.c → [a, a.b, a.b.c].
func (p Path) Prefixes() []Path {
	levels, n := p.Levels()
	return append([]Path(nil), levels[:n]...)
}

// Levels is Prefixes without the allocation, for per-query and
// per-dispatch code: the chain sits in the first n (= p.Depth()) elements.
func (p Path) Levels() (levels [3]Path, n int) {
	return [3]Path{{VO: p.VO}, {VO: p.VO, Group: p.Group}, p}, p.Depth()
}

// Package setterlib is the setter rule's fixture: each field of Config
// is set in one shape, or in none.
package setterlib

import "encoding/xml"

// Config holds one field per case.
type Config struct {
	Keyed       int
	Assigned    int
	OpAssigned  int
	Bumped      int
	Addressed   int
	Counter     Counter
	Positional  Pair
	NeverSet    int
	OnlyInTests int
	XMLName     xml.Name `xml:"config"`
	unexported  int
}

// Pair is filled positionally.
type Pair struct {
	A, B int
}

// Counter has a pointer method.
type Counter struct{ n int }

// Add bumps the counter.
func (c *Counter) Add(d int) { c.n += d }

type hidden struct {
	Field int // an unexported type's fields are out of scope
}

// Use sets every field the rule counts as set.
func Use() (*Config, hidden) {
	c := &Config{Keyed: 1, Positional: Pair{1, 2}}
	c.Assigned = 2
	c.OpAssigned += 3
	c.Bumped++
	p := &c.Addressed
	*p = 4
	c.Counter.Add(5)
	c.unexported = c.NeverSet + c.OnlyInTests
	return c, hidden{}
}

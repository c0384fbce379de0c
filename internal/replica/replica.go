// Package replica implements the replica location service Euryale's
// prescripts and postscripts talk to: a registry mapping logical file
// names (LFNs) to the physical copies (PFNs) at sites, plus the file
// popularity counter the postscript updates. It stands in for the Globus
// RLS used on Grid3.
package replica

import (
	"fmt"
	"sync"
)

// PFN locates one physical copy of a file.
type PFN struct {
	// Site holds the copy.
	Site string
	// Path is the site-local path.
	Path string
	// Size in bytes, used to cost transfers.
	Size int64
}

// Catalog is an in-memory replica location service, safe for concurrent
// use.
type Catalog struct {
	mu         sync.RWMutex
	replicas   map[string][]PFN // LFN → copies
	popularity map[string]int   // LFN → access count
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{
		replicas:   make(map[string][]PFN),
		popularity: make(map[string]int),
	}
}

// Register records a physical copy of lfn. Registering the same
// (site, path) again updates the size rather than duplicating.
func (c *Catalog) Register(lfn string, pfn PFN) error {
	if lfn == "" {
		return fmt.Errorf("replica: empty LFN")
	}
	if pfn.Site == "" {
		return fmt.Errorf("replica: LFN %q: empty site", lfn)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, existing := range c.replicas[lfn] {
		if existing.Site == pfn.Site && existing.Path == pfn.Path {
			c.replicas[lfn][i] = pfn
			return nil
		}
	}
	c.replicas[lfn] = append(c.replicas[lfn], pfn)
	return nil
}

// Lookup returns all known copies of lfn (nil if unknown).
func (c *Catalog) Lookup(lfn string) []PFN {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]PFN(nil), c.replicas[lfn]...)
}

// Nearest returns the copy at the given site if one exists, else any
// copy, preferring deterministic (sorted) order. ok is false if the LFN
// is unknown.
func (c *Catalog) Nearest(lfn, site string) (PFN, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	copies := c.replicas[lfn]
	if len(copies) == 0 {
		return PFN{}, false
	}
	for _, p := range copies {
		if p.Site == site {
			return p, true
		}
	}
	best := copies[0]
	for _, p := range copies[1:] {
		if p.Site < best.Site {
			best = p
		}
	}
	return best, true
}

// Touch increments lfn's popularity (the Euryale postscript's "updates
// file popularity" step) and returns the new count.
func (c *Catalog) Touch(lfn string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.popularity[lfn]++
	return c.popularity[lfn]
}

// Popularity returns lfn's access count.
func (c *Catalog) Popularity(lfn string) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.popularity[lfn]
}

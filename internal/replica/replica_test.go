package replica

import (
	"fmt"
	"sync"
	"testing"
)

func TestRegisterLookup(t *testing.T) {
	c := NewCatalog()
	if err := c.Register("lfn://atlas/run1.dat", PFN{Site: "site-a", Path: "/data/run1", Size: 100}); err != nil {
		t.Fatal(err)
	}
	if err := c.Register("lfn://atlas/run1.dat", PFN{Site: "site-b", Path: "/d/run1", Size: 100}); err != nil {
		t.Fatal(err)
	}
	copies := c.Lookup("lfn://atlas/run1.dat")
	if len(copies) != 2 {
		t.Fatalf("copies = %d, want 2", len(copies))
	}
	if c.Lookup("missing") != nil {
		t.Fatal("lookup of unknown LFN should be nil")
	}
	if len(c.replicas) != 1 {
		t.Fatalf("len = %d", len(c.replicas))
	}
}

func TestRegisterValidation(t *testing.T) {
	c := NewCatalog()
	if err := c.Register("", PFN{Site: "s"}); err == nil {
		t.Fatal("empty LFN accepted")
	}
	if err := c.Register("x", PFN{}); err == nil {
		t.Fatal("empty site accepted")
	}
}

func TestRegisterIdempotentUpdates(t *testing.T) {
	c := NewCatalog()
	c.Register("f", PFN{Site: "s", Path: "/p", Size: 1})
	c.Register("f", PFN{Site: "s", Path: "/p", Size: 999})
	copies := c.Lookup("f")
	if len(copies) != 1 || copies[0].Size != 999 {
		t.Fatalf("copies = %+v", copies)
	}
}

func TestNearestPrefersLocal(t *testing.T) {
	c := NewCatalog()
	c.Register("f", PFN{Site: "zeta", Path: "/1"})
	c.Register("f", PFN{Site: "alpha", Path: "/2"})
	if p, ok := c.Nearest("f", "zeta"); !ok || p.Site != "zeta" {
		t.Fatalf("nearest = %+v", p)
	}
	// Remote lookup is deterministic (lexicographic).
	if p, _ := c.Nearest("f", "elsewhere"); p.Site != "alpha" {
		t.Fatalf("remote nearest = %+v", p)
	}
	if _, ok := c.Nearest("missing", "x"); ok {
		t.Fatal("nearest of unknown LFN")
	}
}

func TestPopularity(t *testing.T) {
	c := NewCatalog()
	for i := 0; i < 3; i++ {
		c.Touch("hot")
	}
	c.Touch("warm")
	if c.Popularity("hot") != 3 || c.Popularity("warm") != 1 || c.Popularity("cold") != 0 {
		t.Fatal("popularity counts wrong")
	}
}

func TestCatalogConcurrency(t *testing.T) {
	c := NewCatalog()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				lfn := fmt.Sprintf("f%d", i%10)
				c.Register(lfn, PFN{Site: fmt.Sprintf("s%d", g), Path: "/p"})
				c.Lookup(lfn)
				c.Touch(lfn)
				c.Nearest(lfn, "s0")
			}
		}(g)
	}
	wg.Wait()
	if len(c.replicas) != 10 {
		t.Fatalf("len = %d, want 10", len(c.replicas))
	}
	if c.Popularity("f0") != 80 {
		t.Fatalf("popularity = %d, want 80", c.Popularity("f0"))
	}
}

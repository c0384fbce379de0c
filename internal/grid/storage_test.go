package grid

import (
	"math/rand"
	"testing"
	"time"

	"digruber/internal/netsim"
	"digruber/internal/usla"
	"digruber/internal/vtime"
)

func testRNG() *rand.Rand { return netsim.Stream(1, "grid.storage.test") }

func storageJob(id, owner string, in, out int64) *Job {
	return &Job{
		ID: JobID(id), Owner: usla.MustParsePath(owner), CPUs: 1,
		Runtime: time.Minute, InputBytes: in, OutputBytes: out,
	}
}

func TestStorageChargedAndReleased(t *testing.T) {
	clock := vtime.NewManual(epoch)
	s, err := NewSite(SiteConfig{Name: "s", Clusters: []int{4}, StorageBytes: 1000}, clock)
	if err != nil {
		t.Fatal(err)
	}
	tk, err := s.Submit(storageJob("j1", "atlas.higgs", 300, 100))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().StorageFree; got != 600 {
		t.Fatalf("storage free = %d, want 600", got)
	}
	if got := s.Snapshot().StorageByPath["atlas"]; got != 400 {
		t.Fatalf("atlas storage = %d, want 400 (prefix accounting)", got)
	}
	st := s.Snapshot()
	if st.StorageTotal != 1000 || st.StorageFree != 600 || st.StorageByPath["atlas.higgs"] != 400 {
		t.Fatalf("snapshot storage = %+v", st)
	}
	clock.Advance(time.Minute)
	<-tk.Done()
	if got := s.Snapshot().StorageFree; got != 1000 {
		t.Fatalf("storage not released: free = %d", got)
	}
	if s.Snapshot().StorageByPath["atlas"] != 0 {
		t.Fatal("per-path storage not released")
	}
}

func TestStorageCapacityRejects(t *testing.T) {
	clock := vtime.NewManual(epoch)
	s, _ := NewSite(SiteConfig{Name: "s", Clusters: []int{4}, StorageBytes: 500}, clock)
	if _, err := s.Submit(storageJob("big", "atlas", 400, 200)); err == nil {
		t.Fatal("over-capacity data accepted")
	}
	if _, err := s.Submit(storageJob("ok", "atlas", 400, 100)); err != nil {
		t.Fatalf("exact-fit data rejected: %v", err)
	}
	if _, err := s.Submit(storageJob("more", "atlas", 1, 0)); err == nil {
		t.Fatal("accepted past full storage")
	}
}

func TestStorageUnmodeledByDefault(t *testing.T) {
	s, _ := newTestSite(t, 2)
	if _, err := s.Submit(storageJob("j", "atlas", 1<<40, 1<<40)); err != nil {
		t.Fatalf("storage limits enforced without capacity: %v", err)
	}
	if s.Snapshot().StorageFree != 0 || s.Snapshot().StorageTotal != 0 {
		t.Fatal("unmodeled storage reported capacity")
	}
}

func TestStorageReleasedOnInjectedFailure(t *testing.T) {
	clock := vtime.NewManual(epoch)
	s, _ := NewSite(SiteConfig{
		Name: "s", Clusters: []int{2}, StorageBytes: 1000,
		FailProb: 1, RNG: testRNG(),
	}, clock)
	tk, err := s.Submit(storageJob("j", "atlas", 500, 0))
	if err != nil {
		t.Fatal(err)
	}
	out := <-tk.Done()
	if !out.Failed {
		t.Fatal("expected injected failure")
	}
	if s.Snapshot().StorageFree != 1000 {
		t.Fatal("failed job leaked storage")
	}
}

func TestStorageReleasedOnClose(t *testing.T) {
	clock := vtime.NewManual(epoch)
	s, _ := NewSite(SiteConfig{Name: "s", Clusters: []int{1}, StorageBytes: 1000}, clock)
	s.Submit(storageJob("a", "atlas", 400, 0))
	s.Submit(storageJob("b", "cms", 400, 0)) // queued
	s.Close()
	if got := s.Snapshot(); got.StorageFree != 1000 || len(got.StorageByPath) != 0 {
		t.Fatalf("storage retained after close: %+v", got)
	}
}

func TestStorageUSLAPolicy(t *testing.T) {
	clock := vtime.NewManual(epoch)
	ps := usla.NewPolicySet()
	entries, err := usla.ParseTextString("* atlas storage 40+")
	if err != nil {
		t.Fatal(err)
	}
	ps.AddAll(entries)
	s, err := NewSite(SiteConfig{
		Name: "s", Clusters: []int{8}, StorageBytes: 1000,
		Policy: StorageUSLAPolicy{Policies: ps},
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	// atlas cap = 400 bytes.
	if _, err := s.Submit(storageJob("j1", "atlas", 400, 0)); err != nil {
		t.Fatalf("within-share data rejected: %v", err)
	}
	if _, err := s.Submit(storageJob("j2", "atlas", 1, 0)); err == nil {
		t.Fatal("over-share data accepted")
	}
	// Other VOs unaffected (opportunistic default).
	if _, err := s.Submit(storageJob("j3", "cms", 500, 0)); err != nil {
		t.Fatalf("other VO rejected: %v", err)
	}
}

func TestCombinedPolicies(t *testing.T) {
	clock := vtime.NewManual(epoch)
	cpuPS := usla.NewPolicySet()
	cpuEntries, _ := usla.ParseTextString("* atlas cpu 50+")
	cpuPS.AddAll(cpuEntries)
	stoPS := usla.NewPolicySet()
	stoEntries, _ := usla.ParseTextString("* atlas storage 10+")
	stoPS.AddAll(stoEntries)
	s, err := NewSite(SiteConfig{
		Name: "s", Clusters: []int{10}, StorageBytes: 1000,
		Policy: Policies{USLAPolicy{Policies: cpuPS}, StorageUSLAPolicy{Policies: stoPS}},
	}, clock)
	if err != nil {
		t.Fatal(err)
	}
	// Passes CPU share but violates the 100-byte storage share.
	if _, err := s.Submit(storageJob("j", "atlas", 200, 0)); err == nil {
		t.Fatal("combined policy let a storage violation through")
	}
	// Fits both.
	if _, err := s.Submit(storageJob("ok", "atlas", 50, 0)); err != nil {
		t.Fatalf("conforming job rejected: %v", err)
	}
}

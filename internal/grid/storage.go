package grid

import (
	"fmt"

	"digruber/internal/usla"
)

// Storage support: the paper's USLAs allocate "processor time, permanent
// storage, or network bandwidth". Sites with a configured storage
// capacity charge each job's input and output bytes against it (and
// against the job's consumer path) from admission until completion, so
// storage-level USLA shares are enforceable by the S-PEP exactly like
// CPU shares.

// storageDemand is the bytes a job occupies while at the site.
func storageDemand(j *Job) int64 { return j.InputBytes + j.OutputBytes }

// chargeStorageLocked books a job's storage. Caller holds s.mu.
func (s *Site) chargeStorageLocked(j *Job) {
	if s.storageTotal <= 0 {
		return
	}
	d := storageDemand(j)
	if d <= 0 {
		return
	}
	s.storageUsed += d
	for _, prefix := range j.Owner.Prefixes() {
		s.storageByPath[prefix] += d
	}
}

// releaseStorageLocked returns a job's storage. Caller holds s.mu.
func (s *Site) releaseStorageLocked(j *Job) {
	if s.storageTotal <= 0 {
		return
	}
	d := storageDemand(j)
	if d <= 0 {
		return
	}
	s.storageUsed -= d
	for _, prefix := range j.Owner.Prefixes() {
		s.storageByPath[prefix] -= d
		if s.storageByPath[prefix] <= 0 {
			delete(s.storageByPath, prefix)
		}
	}
}

// admitStorage rejects a job whose data cannot be stored within the
// site's capacity. Called from Submit before queuing.
func (s *Site) admitStorage(j *Job) error {
	if s.storageTotal <= 0 {
		return nil
	}
	d := storageDemand(j)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.storageUsed+d > s.storageTotal {
		return fmt.Errorf("grid: site %s storage full (%d of %d bytes used, job needs %d)",
			s.name, s.storageUsed, s.storageTotal, d)
	}
	return nil
}

// StorageUSLAPolicy is an S-PEP enforcing storage-share upper limits per
// consumer, the storage counterpart of USLAPolicy.
type StorageUSLAPolicy struct {
	Policies *usla.PolicySet
}

// Admit implements SitePolicy.
func (p StorageUSLAPolicy) Admit(j *Job, st Status) error {
	if st.StorageTotal <= 0 {
		return nil
	}
	uf := func(q usla.Path) float64 { return float64(st.StorageByPath[q.String()]) }
	if !p.Policies.Allowed(st.Name, j.Owner, usla.Storage, float64(st.StorageTotal), uf, float64(storageDemand(j))) {
		return fmt.Errorf("usla storage limit reached for %s at %s", j.Owner, st.Name)
	}
	return nil
}

// Policies combines multiple S-PEPs; every policy must admit.
type Policies []SitePolicy

// Admit implements SitePolicy.
func (ps Policies) Admit(j *Job, st Status) error {
	for _, p := range ps {
		if err := p.Admit(j, st); err != nil {
			return err
		}
	}
	return nil
}

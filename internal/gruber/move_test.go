package gruber

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"digruber/internal/vtime"
)

// A re-planned job: job-1 (8 CPUs) was placed at site-000, refused
// there, and runs at site-001. Both sites start at 90 of 100 free.
func moveRecords(at time.Time) (first, second Dispatch) {
	first = Dispatch{JobID: "job-1", Site: "site-000", Owner: "atlas", CPUs: 8, Runtime: time.Hour,
		At: at, Origin: "dp-1", Seq: 1}
	second = first
	second.Site, second.At, second.Origin = "site-001", at.Add(time.Second), "dp-2"
	return first, second
}

// wantAtSecondSite fails t unless e counts job-1 once, at site-001.
func wantAtSecondSite(t *testing.T, e *Engine, how string) {
	t.Helper()
	if a, b := e.EstFreeCPUs("site-000"), e.EstFreeCPUs("site-001"); a != 90 || b != 82 {
		t.Errorf("%s: site-000 = %d, site-001 = %d free; want 90 and 82", how, a, b)
	}
	if view := e.ExportSnapshot(); len(view) != 1 || view[0].Site != "site-001" {
		t.Errorf("%s: view %+v; want job-1 once, at site-001", how, view)
	}
}

// TestReplannedJobCountsOnceAtItsNewSite: the deciding engine records
// job-1 at site-000 and then, re-planned, at site-001; a flood peer
// merges both. The job counts at site-001 alone on both, and the move is
// no duplicate: it has a sequence number of its own, to flood and journal.
func TestReplannedJobCountsOnceAtItsNewSite(t *testing.T) {
	clock := vtime.NewManual(epoch)
	decider, peer := newEngine(clock, ""), NewEngine("dp-9", nil, clock)
	decider.UpdateSites(statuses(90, 90), epoch)
	peer.UpdateSites(statuses(90, 90), epoch)
	first, second := moveRecords(clock.Now())
	second.At = first.At // the re-plan comes through the same point in the same instant
	decider.RecordDispatch(first)
	decider.RecordDispatch(second)
	wantAtSecondSite(t, decider, "deciding engine")
	if n := decider.Stats().DuplicateIgnored; n != 0 {
		t.Errorf("DuplicateIgnored = %d, want 0: a move is no duplicate", n)
	}
	recs, hi := decider.LocalDispatchesAfter(0)
	if hi != 2 || len(recs) != 2 || recs[1].Site != "site-001" || recs[1].Seq != 2 {
		t.Fatalf("own log %+v (hi %d); want both records, the move numbered 2", recs, hi)
	}
	peer.MergeRemote(recs)
	wantAtSecondSite(t, peer, "flood peer")
}

// TestJobMovesOnEveryIngestPath delivers a re-planned job's two records
// through each ingest path, in both orders, then a late copy of the
// superseded record and a same-site re-delivery of the later one. In
// every case the job counts once, at the later record's site.
func TestJobMovesOnEveryIngestPath(t *testing.T) {
	paths := map[string]func(e *Engine, d Dispatch){
		"RecordDispatch": func(e *Engine, d Dispatch) { d.Origin, d.Seq = "", 0; e.RecordDispatch(d) },
		"MergeRemote":    func(e *Engine, d Dispatch) { e.MergeRemote([]Dispatch{d}) },
		"MergeGossip":    func(e *Engine, d Dispatch) { e.MergeGossip("dp-1", []Dispatch{d}) },
		"ImportSnapshot": func(e *Engine, d Dispatch) { e.ImportSnapshot([]Dispatch{d}) },
		"RestoreRecord":  func(e *Engine, d Dispatch) { e.RestoreRecord(d, true) },
		"RestoreState": func(e *Engine, d Dispatch) {
			e.RestoreState(EngineState{Origins: []OriginState{{Origin: d.Origin, Records: []Dispatch{d}}}})
		},
	}
	for name, deliver := range paths {
		for _, reversed := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/reversed=%t", name, reversed), func(t *testing.T) {
				clock := vtime.NewManual(epoch)
				e := newEngine(clock, "")
				e.UpdateSites(statuses(90, 90), epoch)
				first, second := moveRecords(clock.Now())
				if reversed {
					deliver(e, second)
					deliver(e, first)
				} else {
					deliver(e, first)
					deliver(e, second)
				}
				wantAtSecondSite(t, e, "both records")
				deliver(e, first)
				wantAtSecondSite(t, e, "late copy of the superseded record")
				dups := e.Stats().DuplicateIgnored
				deliver(e, second)
				wantAtSecondSite(t, e, "same-site re-delivery")
				if name != "MergeGossip" && e.Stats().DuplicateIgnored != dups+1 {
					// Gossip stops a re-delivery at the per-origin log,
					// before the dedup set.
					t.Errorf("DuplicateIgnored = %d after a same-site re-delivery, want %d", e.Stats().DuplicateIgnored, dups+1)
				}
			})
		}
	}
}

// TestLateCopyAfterARebase: once a re-baseline has absorbed the later
// record, a late copy of the one it superseded finds no held record in
// the view; the held expiry still orders it as the earlier, and it stays out.
func TestLateCopyAfterARebase(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(90, 90), epoch)
	first, second := moveRecords(clock.Now())
	e.MergeRemote([]Dispatch{second})
	e.UpdateSites(statuses(90, 82), second.At) // the site's own report now counts the job
	e.MergeRemote([]Dispatch{first})
	if a, b := e.EstFreeCPUs("site-000"), e.EstFreeCPUs("site-001"); a != 90 || b != 82 || e.PendingDispatches() != 0 {
		t.Errorf("site-000 = %d, site-001 = %d free, %d pending; want 90, 82 and none", a, b, e.PendingDispatches())
	}
}

// TestReplayReproducesTheMove: the write-ahead stream and the checkpoint
// of an engine that saw a move both restore the job at its new site — the
// checkpoint also when the later record is only in the view and the one
// it moved is in a log.
func TestReplayReproducesTheMove(t *testing.T) {
	clock := vtime.NewManual(epoch)
	e := newEngine(clock, "")
	e.UpdateSites(statuses(90, 90), epoch)
	type entry struct {
		d      Dispatch
		logged bool
	}
	var journal []entry
	e.SetAppender(func(d Dispatch, logged bool) Ticket {
		journal = append(journal, entry{d, logged})
		return nil
	})
	first, second := moveRecords(clock.Now())
	first.Origin, first.Seq = "", 0
	e.RecordDispatch(first)           // own log
	e.MergeRemote([]Dispatch{second}) // view only
	wantAtSecondSite(t, e, "live engine")

	replayed := newEngine(clock, "")
	replayed.UpdateSites(statuses(90, 90), epoch)
	for _, j := range journal {
		replayed.RestoreRecord(j.d, j.logged)
	}
	wantAtSecondSite(t, replayed, "write-ahead replay")

	restored := newEngine(clock, "")
	restored.UpdateSites(statuses(90, 90), epoch)
	restored.RestoreState(exportState(e))
	wantAtSecondSite(t, restored, "checkpoint restore")
}

// TestSeenEntryStays24Bytes: the dedup set holds a site and an expiry per
// JobID in the room the bare expiry took.
func TestSeenEntryStays24Bytes(t *testing.T) {
	if n := unsafe.Sizeof(seenEntry{}); n != unsafe.Sizeof(time.Time{}) || n != 24 {
		t.Fatalf("seenEntry is %d bytes, want 24", n)
	}
}

// FuzzIngestOrder delivers one set of stamped batches, re-planned jobs
// included, to two engines in opposite orders; both must end with the
// same view. The records of one job share its owner, CPUs and runtime
// and visit each site at most once, as a planner's re-plans do; each
// record has an origin of its own, so the gossip path's per-origin log,
// which real gossip fills in sequence order, never sees one out of order.
func FuzzIngestOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{9, 9, 9, 9, 200, 17, 33, 1, 0, 5, 250, 64})
	f.Add([]byte{1, 130, 2, 131, 3, 132, 4, 133, 5, 134, 6, 135, 7, 136})
	f.Fuzz(func(t *testing.T, data []byte) {
		const sitesN, jobsN = 4, 3
		now := epoch.Add(40 * time.Minute)
		var batches [][]Dispatch
		var paths []byte
		visited := map[string]map[string]bool{}
		for i := 0; i+1 < len(data) && i < 64; i += 2 {
			a, b := data[i], data[i+1]
			job := fmt.Sprintf("job-%d", a%jobsN)
			site := fmt.Sprintf("site-%03d", b%sitesN)
			if visited[job] == nil {
				visited[job] = map[string]bool{}
			}
			d := Dispatch{JobID: job, Site: site, Owner: "atlas", CPUs: 1 + int(a%jobsN),
				Runtime: time.Duration(20+10*int(a%jobsN)) * time.Minute,
				At:      epoch.Add(time.Duration(a/jobsN%8) * 5 * time.Minute),
				Origin:  fmt.Sprintf("o-%02d", i/2), Seq: 1}
			if visited[job][site] {
				continue // a job does not return to a site it left
			}
			visited[job][site] = true
			if len(batches) == 0 || b&0x40 != 0 {
				batches, paths = append(batches, nil), append(paths, a^b)
			}
			batches[len(batches)-1] = append(batches[len(batches)-1], d)
			if b&0x80 != 0 && len(batches[len(batches)-1]) > 0 {
				batches[len(batches)-1] = append(batches[len(batches)-1], batches[len(batches)-1][0]) // a re-delivery
			}
		}
		deliver := func(e *Engine, path byte, batch []Dispatch) {
			switch path % 4 {
			case 0:
				e.MergeRemote(batch)
			case 1:
				e.MergeGossip("dp-1", batch)
			case 2:
				e.ImportSnapshot(batch)
			default:
				for _, d := range batch {
					e.RestoreRecord(d, path&4 != 0)
				}
			}
		}
		engines := [2]*Engine{}
		for k := range engines {
			clock := vtime.NewManual(now)
			engines[k] = NewEngine(fmt.Sprintf("dp-%c", 'x'+k), nil, clock)
			engines[k].UpdateSites(statuses(100, 100, 100, 100), epoch)
		}
		for i := range batches {
			deliver(engines[0], paths[i], batches[i])
			j := len(batches) - 1 - i
			deliver(engines[1], paths[j], batches[j])
		}
		a, b := engines[0].ExportSnapshot(), engines[1].ExportSnapshot()
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("views differ by delivery order:\n%v\n%v\nbatches %v", a, b, batches)
		}
		for s := 0; s < sitesN; s++ {
			site := fmt.Sprintf("site-%03d", s)
			if x, y := engines[0].EstFreeCPUs(site), engines[1].EstFreeCPUs(site); x != y {
				t.Fatalf("%s free %d and %d by delivery order", site, x, y)
			}
		}
	})
}

package gruber

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"digruber/internal/usla"
	"digruber/internal/vtime"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/parity.golden from the current engine")

// The parity contract (DESIGN.md "Replication paths") says what each of
// the five ways a dispatch record enters an engine skips, logs, journals,
// counts and folds, and in which order. This test pins every cell of
// that table: one seeded stream goes through each entry point on a fresh
// engine (and through all five interleaved on a sixth), and everything
// observable — the write-ahead hook's call sequence, the returned stats,
// the per-origin logs, the site views and the counters — is compared
// with testdata/parity.golden, which was recorded from the five
// hand-written ingest paths this table replaced (commit a1d6d0c).

const (
	parityRecords = 200
	parityBatch   = 10
	parityStep    = 20 * time.Second
)

// parityStream builds the seeded record stream: five origins (the
// engine's own name, three peers and the empty name), unstamped
// records, exact re-deliveries, re-deliveries of a JobID under a fresh
// sequence number, jobs that finished long ago, unknown sites, an
// unparsable owner, a sequence gap on dp-1 and a renumbered dp-2.
func parityStream() []Dispatch {
	r := rand.New(rand.NewSource(14))
	origins := []string{"dp-0", "dp-0", "dp-1", "dp-1", "dp-2", "dp-2", "dp-3", ""}
	owners := []string{"atlas", "atlas.higgs", "cms", "cms.top.alice", "uc.cs.grads", "bad..owner"}
	next := map[string]uint64{}
	var out []Dispatch
	for i := 0; i < parityRecords; i++ {
		switch i {
		case 60:
			next["dp-1"] += 5 // the sender compacted five records away
		case 120:
			next["dp-2"] = 0 // dp-2 crashed and renumbers from 1
		}
		if len(out) > 0 && r.Intn(100) < 15 {
			d := out[r.Intn(len(out))]
			if r.Intn(2) == 0 && d.Origin != "" {
				// Same job over another path, stamped afresh.
				next[d.Origin]++
				d.Seq = next[d.Origin]
			}
			out = append(out, d)
			continue
		}
		d := Dispatch{
			JobID:   fmt.Sprintf("job-%03d", i),
			Site:    fmt.Sprintf("site-%03d", r.Intn(4)),
			Owner:   owners[r.Intn(len(owners))],
			CPUs:    1 + r.Intn(4),
			Runtime: time.Duration(30+r.Intn(60)) * time.Minute,
			At:      epoch.Add(time.Duration(i) * parityStep),
			Origin:  origins[r.Intn(len(origins))],
		}
		if r.Intn(100) < 8 {
			d.Site = "site-unknown"
		}
		if r.Intn(100) < 12 {
			d.At = epoch.Add(-2 * time.Hour)
			d.Runtime = 10 * time.Minute
		}
		if r.Intn(100) >= 10 {
			next[d.Origin]++
			d.Seq = next[d.Origin]
		}
		out = append(out, d)
	}
	return out
}

// parityRun is one engine under observation.
type parityRun struct {
	clock *vtime.Manual
	e     *Engine
	out   strings.Builder
}

func newParityRun(name string) *parityRun {
	p := &parityRun{clock: vtime.NewManual(epoch)}
	p.e = newEngine(p.clock, "* atlas cpu 50+\n* cms cpu 30+")
	p.e.UpdateSites(statuses(100, 100, 100, 100), epoch)
	fmt.Fprintf(&p.out, "== %s\n", name)
	p.e.SetAppender(func(d Dispatch, logged bool) Ticket {
		fmt.Fprintf(&p.out, "journal %s %s/%d logged=%t\n", d.JobID, d.Origin, d.Seq, logged)
		return nil
	})
	return p
}

// Each feed advances the clock by one step per record, so the same
// record meets the same "now" whichever entry point carries it.

func (p *parityRun) record(ds []Dispatch) {
	for _, d := range ds {
		p.clock.Advance(parityStep)
		p.e.RecordDispatch(d)
	}
}

func (p *parityRun) remote(ds []Dispatch) {
	p.clock.Advance(time.Duration(len(ds)) * parityStep)
	fmt.Fprintf(&p.out, "MergeRemote = %d\n", p.e.MergeRemote(ds))
}

func (p *parityRun) gossip(ds []Dispatch) {
	p.clock.Advance(time.Duration(len(ds)) * parityStep)
	fmt.Fprintf(&p.out, "MergeGossip = %+v\n", p.e.MergeGossip("dp-1", ds))
}

func (p *parityRun) snapshot(ds []Dispatch) {
	p.clock.Advance(time.Duration(len(ds)) * parityStep)
	fmt.Fprintf(&p.out, "ImportSnapshot = %d\n", p.e.ImportSnapshot(ds))
}

// restore replays ds as write-ahead records; the logged flag is drawn
// from r, as a journal written by a mix of entry points would carry it.
func (p *parityRun) restore(ds []Dispatch, r *rand.Rand) {
	for _, d := range ds {
		p.clock.Advance(parityStep)
		logged := r.Intn(4) != 0
		fmt.Fprintf(&p.out, "RestoreRecord %s logged=%t = %+v\n", d.JobID, logged, p.e.RestoreRecord(d, logged))
	}
}

// checkpointOf shapes the head of the stream as a checkpoint image:
// stamped records grouped into per-origin logs (one with a floor above
// its first records, one that is pure floor, one under the empty name),
// the rest as loose view records.
func checkpointOf(ds []Dispatch) EngineState {
	byOrigin := map[string][]Dispatch{}
	var st EngineState
	for _, d := range ds {
		if d.Seq > 0 {
			byOrigin[d.Origin] = append(byOrigin[d.Origin], d)
		} else {
			st.View = append(st.View, d)
		}
	}
	byOrigin["dp-9"] = nil
	origins := make([]string, 0, len(byOrigin))
	for o := range byOrigin {
		origins = append(origins, o)
	}
	sort.Strings(origins)
	floors := map[string]uint64{"dp-2": 3, "dp-9": 7}
	for _, o := range origins {
		st.Origins = append(st.Origins, OriginState{Origin: o, Floor: floors[o], Records: byOrigin[o]})
	}
	return st
}

// finish appends everything observable about the engine's end state.
func (p *parityRun) finish() string {
	e, w := p.e, &p.out
	for i := 0; i < 4; i++ {
		site := fmt.Sprintf("site-%03d", i)
		fmt.Fprintf(w, "%s free=%d\n", site, e.EstFreeCPUs(site))
	}
	for _, owner := range []string{"atlas.higgs", "cms.top.alice"} {
		fmt.Fprintf(w, "headroom %s", owner)
		for _, l := range e.SiteLoads(usla.MustParsePath(owner), 1) {
			fmt.Fprintf(w, " %g", l.Headroom)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "pending=%d highwater=%d\n", e.PendingDispatches(), e.LocalSeqHighWater())
	vv := e.OriginVector()
	origins := make([]string, 0, len(vv))
	for o := range vv {
		origins = append(origins, o)
	}
	sort.Strings(origins)
	for _, o := range origins {
		fmt.Fprintf(w, "vector %q hi=%d held=%d\n", o, vv[o], held(e, o))
	}
	for _, d := range e.DispatchesSince(nil, 0) {
		fmt.Fprintf(w, "log %s/%d %s\n", d.Origin, d.Seq, d.JobID)
	}
	for _, d := range e.ExportSnapshot() {
		fmt.Fprintf(w, "view %s %s/%d\n", d.JobID, d.Origin, d.Seq)
	}
	fmt.Fprintf(w, "stats %+v\n", e.Stats())
	return p.out.String()
}

func batches(ds []Dispatch) [][]Dispatch {
	var out [][]Dispatch
	for len(ds) > 0 {
		n := parityBatch
		if n > len(ds) {
			n = len(ds)
		}
		out = append(out, ds[:n])
		ds = ds[n:]
	}
	return out
}

func TestIngestParity(t *testing.T) {
	stream := parityStream()
	var got strings.Builder

	for _, ep := range []struct {
		name string
		feed func(*parityRun, []Dispatch)
	}{
		{"RecordDispatch", (*parityRun).record},
		{"MergeRemote", (*parityRun).remote},
		{"MergeGossip", (*parityRun).gossip},
		{"ImportSnapshot", (*parityRun).snapshot},
	} {
		p := newParityRun(ep.name)
		for _, b := range batches(stream) {
			ep.feed(p, b)
		}
		got.WriteString(p.finish())
	}

	p := newParityRun("RestoreState+RestoreRecord")
	fmt.Fprintf(&p.out, "RestoreState = %+v\n", p.e.RestoreState(checkpointOf(stream[:80])))
	p.restore(stream[80:], rand.New(rand.NewSource(15)))
	got.WriteString(p.finish())

	// All five on one engine, so each path meets state the others left:
	// a gossiped record the view already holds from a snapshot import, a
	// snapshot re-adopting own-origin records past the own log's head.
	p = newParityRun("interleaved")
	r := rand.New(rand.NewSource(16))
	for i, b := range batches(stream) {
		switch i % 5 {
		case 0:
			p.snapshot(b)
		case 1:
			p.gossip(b)
		case 2:
			p.record(b)
		case 3:
			p.remote(b)
		case 4:
			p.restore(b, r)
		}
	}
	got.WriteString(p.finish())

	const golden = "testdata/parity.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				section := ""
				for j := i; j >= 0; j-- {
					if strings.HasPrefix(gl[j], "== ") {
						section = gl[j]
						break
					}
				}
				w := "<end of golden>"
				if i < len(wl) {
					w = wl[i]
				}
				t.Fatalf("ingest diverges from the recorded contract at line %d (%s):\n got  %s\n want %s", i+1, section, gl[i], w)
			}
		}
		t.Fatalf("ingest output is a strict prefix of the golden (%d vs %d lines)", len(gl), len(wl))
	}
}

package digruber

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"digruber/internal/grid"
	"digruber/internal/gruber"
	"digruber/internal/netsim"
	"digruber/internal/usla"
	"digruber/internal/vtime"
	"digruber/internal/wire"
)

// emptyReplyLoads takes everything off the package's list of loads
// storage, now and when the test ends: a test that counts allocations, or
// that looks at what the list hands out, starts from an empty one.
func emptyReplyLoads(t testing.TB) {
	drain := func() {
		for cap(replyLoads.Take(0)) > 0 {
		}
	}
	drain()
	t.Cleanup(drain)
}

// ownedPoint is one decision point over 300 idle sites where each of
// voCount VOs has a target and an upper limit of its own, so that no two
// owners are answered with the same Headroom or TargetGap anywhere.
func ownedPoint(t testing.TB, voCount int) (*DecisionPoint, *wire.Mem) {
	t.Helper()
	ps := usla.NewPolicySet()
	for v := 0; v < voCount; v++ {
		vo := usla.Path{VO: fmt.Sprintf("vo-%02d", v)}
		for _, share := range []usla.Share{{Percent: float64(5 + v), Kind: usla.Target}, {Percent: float64(40 + 2*v), Kind: usla.UpperLimit}} {
			if err := ps.Add(usla.Entry{Provider: usla.AnyProvider, Consumer: vo, Resource: usla.CPU, Share: share}); err != nil {
				t.Fatal(err)
			}
		}
	}
	mem, clock := wire.NewMem(), vtime.NewReal()
	dp, err := New(Config{Name: "owned-dp", Addr: "owned-dp", Transport: mem, Clock: clock,
		Profile: wire.Instant(), Policies: ps, ExchangeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	statuses := make([]grid.Status, 300)
	for i := range statuses {
		statuses[i] = grid.Status{Name: fmt.Sprintf("site-%03d", i), TotalCPUs: 400 + i, FreeCPUs: 400 + i, UsageByPath: map[string]int{}}
	}
	dp.Engine().UpdateSites(statuses, clock.Now())
	if err := dp.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dp.Stop)
	return dp, mem
}

// ownerCheck is USLAAware behind a check that the loads a decision was
// handed are the engine's answer for that decision's own owner. A job of
// n CPUs belongs to VO n-1 and only one goroutine submits for each VO,
// so between its query and its report nothing moves that VO's usage: the
// engine, asked again, must say the same of every site but for the free
// CPUs other owners are taking meanwhile. Loads that were another
// decision's — storage handed out twice — carry another VO's numbers.
type ownerCheck struct {
	t      *testing.T
	engine *gruber.Engine
}

func (ownerCheck) Name() string { return "owner-check" }

func voOf(cpus int) usla.Path { return usla.Path{VO: fmt.Sprintf("vo-%02d", cpus-1)} }

func (c ownerCheck) Select(loads []gruber.SiteLoad, cpus int) (string, bool) {
	want := c.engine.SiteLoads(voOf(cpus), cpus)
	if len(loads) != len(want) {
		c.t.Errorf("%d loads for a job of %d CPUs, the engine has %d sites", len(loads), cpus, len(want))
		return "", false
	}
	for i, w := range want {
		g := loads[i]
		if g.Name != w.Name || g.TotalCPUs != w.TotalCPUs || g.Headroom != w.Headroom || g.TargetGap != w.TargetGap {
			c.t.Errorf("job of %d CPUs, load %d: got %+v, the engine says %+v", cpus, i, g, w)
			return "", false
		}
	}
	return gruber.USLAAware{}.Select(loads, cpus)
}

// TestLoadsStorageHasOneOwner runs 8 goroutines of 500 two-call decisions
// each through one client and one decision point, so that the engine's
// results, the encoded replies, the frames' bodies and the decoded loads
// of up to eight decisions are on their lists and off them at once. Each
// decision checks the loads it selects from (ownerCheck); each goroutine
// checks that the site of its first decision — a string that arrived in
// storage long since reused — still reads the same at the end. CI runs
// it under -race, where SliceList.Put also refuses a slice put twice.
func TestLoadsStorageHasOneOwner(t *testing.T) {
	emptyReplyLoads(t)
	const workers, decisions = 8, 500
	dp, mem := ownedPoint(t, workers)
	c, err := NewClient(ClientConfig{Name: "owned-client", DPName: dp.Name(), DPNode: dp.Name(), DPAddr: dp.Addr(),
		Transport: mem, Clock: vtime.NewReal(), Timeout: time.Minute,
		Selector: ownerCheck{t, dp.Engine()}, RNG: netsim.Stream(1, "ownership")})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	known := map[string]bool{}
	for _, l := range dp.Engine().SiteLoads(voOf(1), 1) {
		known[l.Name] = true
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var first, firstCopy string
			for i := 0; i < decisions; i++ {
				dec := c.Schedule(&grid.Job{ID: grid.JobID(fmt.Sprintf("w%d-j%d", w, i)), Owner: voOf(w + 1),
					CPUs: w + 1, Runtime: time.Hour, SubmitHost: "owned-client"})
				if dec.Err != nil || !dec.Handled || !known[dec.Site] {
					t.Errorf("worker %d, decision %d: %+v", w, i, dec)
					return
				}
				if i == 0 {
					first, firstCopy = dec.Site, strings.Clone(dec.Site)
				}
			}
			if first != firstCopy {
				t.Errorf("worker %d: its first decision's site was %q and now reads %q", w, firstCopy, first)
			}
		}(w)
	}
	wg.Wait()
	if got := dp.Engine().Stats().LocalDispatches; got != workers*decisions {
		t.Errorf("the engine recorded %d dispatches of %d", got, workers*decisions)
	}
}

// sparseReply is a reply of n loads with fields at zero here and there:
// what must not show through from whatever the storage held before.
func sparseReply(n int) QueryReply {
	r := QueryReply{Loads: make([]gruber.SiteLoad, n)}
	for i := range r.Loads {
		switch l := &r.Loads[i]; i % 4 {
		case 1:
			l.Name = fmt.Sprintf("site-%03d", i)
		case 2:
			l.TargetGap = -1
		case 3:
			l.TotalCPUs, l.Headroom = 7, 0.5
		}
	}
	return r
}

// TestRecycledLoadsDecodeAsFresh decodes a reply with every field set,
// gives its loads back as Client.Schedule does, and decodes a sparse
// reply into that very storage: it must equal a fresh gob.Decoder's
// value, through the value hook and — when the body's last load is not
// as AppendGobValue writes it, so that the hook has filled 299 elements
// before it declines — through gob.
func TestRecycledLoadsDecodeAsFresh(t *testing.T) {
	emptyReplyLoads(t)
	p := newCodecProbe(t)
	frame := replyFraming(t)
	full, sparse := gridReply("site", 300), sparseReply(300)
	dirty := func() *gruber.SiteLoad {
		_, got := roundTrip(t, p, full, nil)
		if !sameReply(got, full) {
			t.Fatal("a full reply was misread")
		}
		replyLoads.Put(got.Loads)
		return &got.Loads[0]
	}

	storage := dirty()
	_, got := roundTrip(t, p, sparse, nil)
	if fresh, _ := freshReply(freshGob(t, sparse)); !sameReply(got, fresh) {
		t.Errorf("a sparse reply read into used storage differs from a fresh decode")
	}
	if &got.Loads[0] != storage {
		t.Error("the sparse reply was not read into the storage just put back: the test proves nothing")
	}

	// The last load's TotalCPUs in three bytes where one does: gob reads
	// it, ReadGobValue declines it after everything before it.
	value := appendValue(sparse, nil)
	last := appendSiteLoad(nil, &sparse.Loads[299]) // 2 14 …: TotalCPUs, two fields on, is 7
	if !bytes.HasSuffix(value, append(bytes.Clone(last), 0)) || last[0] != 2 || last[1] != 14 {
		t.Fatalf("the sparse reply's value ends % x, its last load is % x", value[len(value)-10:], last)
	}
	padded := append(bytes.Clone(value[:len(value)-len(last)-1]), 2, 0xfe, 0, 14)
	padded = append(append(padded, last[2:]...), 0)
	for round := 0; round < 3; round++ {
		storage = dirty()
		body := frame(padded)
		_, got, err := call(p, QueryReply{}, body)
		fresh, freshErr := freshReply(body)
		if err != nil || freshErr != nil || !sameReply(got, fresh) || !sameReply(got, sparse) {
			t.Fatalf("a reply the hook declines at its last load: %v, gob alone %v; equal to gob's: %v", err, freshErr, sameReply(got, fresh))
		}
		if &got.Loads[0] == storage {
			t.Error("gob decoded into storage from the list")
		}
		// What the hook gave back when it declined is still good.
		if _, got := roundTrip(t, p, sparse, nil); !sameReply(got, sparse) || &got.Loads[0] != storage {
			t.Fatalf("after a declined body: a sparse reply decoded wrongly (into the list's storage: %v)", &got.Loads[0] == storage)
		}
	}
}

// decisionCost reads what one warm decision allocates, in allocations
// and in bytes, each as the least of five windows of 200 decisions:
// what other goroutines allocate meanwhile — the runtime's, the race
// detector's, a test running beside this one — can only add to a window,
// so the least of them is the decision's own. (A single window once read
// 10 479 bytes under -race -count=12, over an 8 KB ceiling the decision
// keeps.)
func decisionCost(decide func()) (allocs float64, bytes uint64) {
	allocs, bytes = math.Inf(1), math.MaxUint64
	for w := 0; w < ceilingWindows; w++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n := testing.AllocsPerRun(ceilingRuns, decide)
		runtime.ReadMemStats(&after)
		// AllocsPerRun calls decide once more than it counts.
		allocs, bytes = min(allocs, n), min(bytes, (after.TotalAlloc-before.TotalAlloc)/(ceilingRuns+1))
	}
	return allocs, bytes
}

// The ceiling tests' windows, and the decisions in each.
const ceilingWindows, ceilingRuns = 5, 200

// ceilingDecisions returns a function that makes one decision of the
// given coupling against a 300-site point, warmed by 50 of them.
func ceilingDecisions(t *testing.T, single bool) func() {
	emptyReplyLoads(t)
	dp, mem := ownedPoint(t, 1)
	c, err := NewClient(ClientConfig{Name: "ceiling-client", DPName: dp.Name(), DPNode: dp.Name(), DPAddr: dp.Addr(),
		Transport: mem, Clock: vtime.NewReal(), Timeout: time.Minute, RNG: netsim.Stream(1, "ceiling"), SingleCall: single})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	// The jobs are made up front: what the test spends on a job and its
	// ID — through fmt's pool, which the race detector empties at random —
	// is not the decision's.
	jobs := make([]grid.Job, 50+ceilingWindows*(ceilingRuns+1))
	for i := range jobs {
		jobs[i] = grid.Job{ID: grid.JobID(fmt.Sprint("ceiling-", i)), Owner: voOf(1), CPUs: 1, Runtime: time.Hour, SubmitHost: "ceiling-client"}
	}
	n := 0
	decide := func() {
		dec := c.Schedule(&jobs[n])
		if dec.Err != nil || !dec.Handled {
			t.Fatalf("decision %d: %+v", n, dec)
		}
		n++
	}
	for i := 0; i < 50; i++ {
		decide()
	}
	return decide
}

// TestScheduleAllocCeiling pins what a warm two-call decision against a
// 300-site point allocates: no engine result, no encoded reply, no
// message buffer, no body, no loads, no per-call state — the dispatch's
// JobID and the values boxed into and out of the codec at both ends. It
// read 70 KB before the buffers had owners, and 36 allocations before the
// small bodies carried the value hook and the calls reused their state.
func TestScheduleAllocCeiling(t *testing.T) {
	allocs, bytes := decisionCost(ceilingDecisions(t, false))
	t.Logf("a warm two-call decision: %.0f allocations, %d bytes", allocs, bytes)
	if allocs > 9 {
		t.Errorf("a warm two-call decision against 300 sites makes %.0f allocations, ceiling 9", allocs)
	}
	if bytes > 8<<10 {
		t.Errorf("a warm two-call decision against 300 sites allocates %d bytes, ceiling 8 KB", bytes)
	}
}

// TestScheduleSingleCallAllocCeiling is the single-call twin: the same
// but for the engine's 300-load result, which the Schedule handler still
// allocates on purpose (ROADMAP 6(a)) and which is most of its bytes.
// It read 21 allocations before the small bodies carried the hook.
func TestScheduleSingleCallAllocCeiling(t *testing.T) {
	allocs, bytes := decisionCost(ceilingDecisions(t, true))
	t.Logf("a warm single-call decision: %.0f allocations, %d bytes", allocs, bytes)
	if allocs > 7 {
		t.Errorf("a warm single-call decision against 300 sites makes %.0f allocations, ceiling 7", allocs)
	}
	if bytes > 20<<10 {
		t.Errorf("a warm single-call decision against 300 sites allocates %d bytes, ceiling 20 KB", bytes)
	}
}

package exp

import (
	"fmt"
	"strings"
	"time"

	"digruber/internal/diperf"
	"digruber/internal/trace"
	"digruber/internal/wire"
)

// TraceOutputPath, when non-empty (cmd/experiments -trace-out), makes
// ext-trace-breakdown write its raw span records as JSONL to this path
// so cmd/digruber-trace can analyze them offline.
var TraceOutputPath string

// runTraceBreakdown regenerates Figure 5's run (GT3, one decision
// point) with distributed tracing on and decomposes every request's
// end-to-end response into exclusive per-phase time: where the ≈2 q/s
// plateau actually goes. The paper could only infer the split
// (authentication, SOAP processing, WAN) from aggregate counters; the
// span trees measure it directly.
func runTraceBreakdown(scale Scale) (Report, error) {
	sink := trace.NewCollector(0)
	cfg := gtScenario("ext-trace-breakdown", wire.GT3(), 1, scale)
	cfg.TraceSink = sink
	res, err := RunScenario(cfg)
	if err != nil {
		return Report{}, err
	}

	trees := trace.BuildTrees(sink.Records())
	reqs := trace.FilterRoots(trees, trace.PhaseSchedule)
	if len(reqs) == 0 {
		return Report{}, fmt.Errorf("exp: traced run produced no request traces")
	}
	mesh := trace.FilterRoots(trees, trace.PhaseMeshRound)
	phases := trace.PhaseBreakdown(reqs)

	// Verify the decomposition: within every request tree the per-phase
	// exclusive times must telescope back to the root's end-to-end time.
	residualBad := 0
	for _, t := range reqs {
		_, residual := t.Exclusive()
		if residual < 0 {
			residual = -residual
		}
		if residual > time.Millisecond {
			residualBad++
		}
	}

	// Cross-check the root spans against DiPerF's own per-operation
	// timing via the TraceID join key.
	byTrace := make(map[uint64]diperf.OpRecord, len(res.DiPerF.Records))
	for _, r := range res.DiPerF.Records {
		if r.TraceID != 0 {
			byTrace[r.TraceID] = r
		}
	}
	matched := 0
	var maxDev time.Duration
	for _, t := range reqs {
		r, ok := byTrace[t.Root.Trace]
		if !ok {
			continue
		}
		matched++
		dev := r.Response - t.Duration()
		if dev < 0 {
			dev = -dev
		}
		if dev > maxDev {
			maxDev = dev
		}
	}

	var b strings.Builder
	b.WriteString("== Extension: per-phase latency attribution (GT3, 1 DP — Figure 5's run, traced) ==\n")
	fmt.Fprintf(&b, "requests traced: %d (%d spans collected, %d dropped)  mesh rounds traced: %d\n",
		len(reqs), sink.Len(), sink.Dropped(), len(mesh))
	fmt.Fprintf(&b, "peak tput %.2f q/s, mean response %.2fs — the plateau decomposes as:\n\n",
		res.DiPerF.PeakThroughput, res.DiPerF.ResponseSummary.Mean)
	fmt.Fprintf(&b, "%-16s %8s %7s %10s %10s %10s %10s\n",
		"phase", "spans", "share", "total", "mean/req", "p95/req", "max/req")
	for _, p := range phases {
		fmt.Fprintf(&b, "%-16s %8d %6.1f%% %10s %10s %10s %10s\n",
			p.Name, p.Spans, p.Share*100,
			p.Total.Round(time.Second),
			p.Mean.Round(time.Millisecond),
			p.P95.Round(time.Millisecond),
			p.Max.Round(time.Millisecond))
	}
	if len(phases) > 0 {
		top := phases[0]
		fmt.Fprintf(&b, "\ncritical path: %.1f%% of all request time is exclusive %s\n",
			top.Share*100, top.Name)
	}
	b.WriteString("\nslowest requests:\n")
	for _, t := range trace.SlowestN(reqs, 3) {
		excl, _ := t.Exclusive()
		var worstName string
		var worst time.Duration
		//lint:allow mapiter -- max with lexicographic tie-break; result is order-independent
		for name, d := range excl {
			if d > worst || (d == worst && name < worstName) {
				worst, worstName = d, name
			}
		}
		fmt.Fprintf(&b, "  job %-14s %8s end-to-end, %s of it %s\n",
			t.Root.Note, t.Duration().Round(time.Millisecond),
			worst.Round(time.Millisecond), worstName)
	}
	fmt.Fprintf(&b, "\nverification: %d/%d trees telescope to their root within 1ms; "+
		"%d/%d roots matched a DiPerF record (max deviation %s)\n",
		len(reqs)-residualBad, len(reqs), matched, len(reqs),
		maxDev.Round(time.Millisecond))
	b.WriteString("\nThe GT3 stack emulation (auth + SOAP service time) and the queue in\nfront of its four workers absorb nearly all of a saturated request's\nlifetime — the paper's explanation for the ≈2 q/s plateau, now measured\nphase by phase instead of inferred.\n")

	rows := make([]Row, 0, len(phases)+1)
	for _, p := range phases {
		rows = append(rows, Row{
			"row":     "phase",
			"phase":   p.Name,
			"spans":   p.Spans,
			"trees":   p.Trees,
			"share":   p.Share,
			"total_s": p.Total.Seconds(),
			"mean_s":  p.Mean.Seconds(),
			"p50_s":   p.P50.Seconds(),
			"p95_s":   p.P95.Seconds(),
			"p99_s":   p.P99.Seconds(),
			"max_s":   p.Max.Seconds(),
		})
	}
	rows = append(rows, Row{
		"row":                 "trace-summary",
		"requests":            len(reqs),
		"spans":               sink.Len(),
		"dropped":             sink.Dropped(),
		"mesh_rounds":         len(mesh),
		"residual_violations": residualBad,
		"diperf_matched":      matched,
		"max_deviation_s":     maxDev.Seconds(),
		"peak_tput_qps":       res.DiPerF.PeakThroughput,
		"mean_response_s":     res.DiPerF.ResponseSummary.Mean,
	})

	if TraceOutputPath != "" {
		if err := writeOutput(TraceOutputPath, sink.WriteJSONL); err != nil {
			return Report{}, err
		}
		fmt.Fprintf(&b, "\nwrote %d span records to %s\n", sink.Len(), TraceOutputPath)
	}

	return Report{Text: b.String(), Rows: rows}, nil
}

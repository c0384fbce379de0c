package exp

import (
	"fmt"
	"io"
	"strings"
	"time"

	"digruber/internal/stats"
	"digruber/internal/tsdb"
	"digruber/internal/wire"
)

// Payload estimates for the capacity model. A scheduling query's reply
// carries one SiteLoad per site (roughly 64 gob bytes each on top of a
// fixed envelope); the dispatch report is a small fixed-size record.
// These only need to be right to within tens of percent: the experiment
// drives the fleet at 0.5x and 2x the estimated knee, far from the
// boundary.
const (
	queryEnvelopeBytes = 256
	perSiteBytes       = 64
	reportBytes        = 512
)

// overloadCapacity estimates one decision point's sustainable job rate
// (query + report per job) under the scaled GT3 profile — the
// saturation knee the paper's Figure 5/6 curves bend at. The PerKB
// scaling mirrors ScenarioConfig.setDefaults so the estimate matches
// what the run will actually charge per request.
func overloadCapacity(scale Scale) float64 {
	p := wire.GT3()
	if scale.Sites > 0 && scale.Sites < fullScaleSites {
		p.PerKB = time.Duration(float64(p.PerKB) * float64(fullScaleSites) / float64(scale.Sites))
	}
	perJob := p.ServiceTime(queryEnvelopeBytes+scale.Sites*perSiteBytes) + p.ServiceTime(reportBytes)
	return float64(p.Workers()) / perJob.Seconds()
}

// overloadOutcome is one (fleet size, variant) cell of the report.
type overloadOutcome struct {
	key     string
	dps     int
	variant string // "base" (0.5x knee), "off" (2x, no plane), "on" (2x, plane)
	clients int
	// goodput is mean handled throughput (q/s) over full post-ramp
	// windows; p99 is the response-time tail in seconds.
	goodput float64
	p99     float64
	// amplification is wire attempts per logical call — 1.0 means no
	// retries, the off-plane saturated fleet approaches the attempt cap.
	amplification float64
	throttled     int64
	expired       int64
	shed          int64
	connLost      int64
	breakerOpens  float64
	meanDiv       float64
	exchRounds    int
}

// runOverloadExtension (ext-overload) drives 1/3/10-DP GT3 fleets past
// the Figure 5/6 saturation knee and measures what the overload-control
// plane buys: with the plane off, clients retry without bound, stale
// requests are processed to completion for callers that have long since
// fallen back, and mesh exchanges queue behind the client flood; with
// the plane on, deadlines propagate (stale work is dropped at dequeue),
// a shared retry budget caps amplification, circuit breakers fail fast
// and steer failover to the least-loaded broker, and a reserved mesh
// lane keeps views converging.
func runOverloadExtension(scale Scale) (Report, error) {
	capacity := overloadCapacity(scale)
	interarrival := 5 * time.Second
	// A realistic container accept backlog (default is effectively
	// unbounded for a bench run): past the knee the queue fills and the
	// stack sheds, which is what gives retries something to amplify.
	profile := wire.GT3()
	profile.QueueLimit = 32

	type variant struct {
		name     string
		loadMult float64
		overload *OverloadConfig
	}
	variants := []variant{
		// Pre-knee baseline: same retry policy as "off" so the only
		// difference past the knee is the load itself.
		{"base", 0.5, &OverloadConfig{Plane: false}},
		{"off", 2.0, &OverloadConfig{Plane: false}},
		{"on", 2.0, &OverloadConfig{Plane: true}},
	}

	var results []overloadOutcome
	var dump []tsdb.SeriesPoint
	for _, dps := range []int{1, 3, 10} {
		for _, v := range variants {
			knee := capacity * float64(dps)
			clients := int(knee*v.loadMult*interarrival.Seconds() + 0.5)
			if clients < 1 {
				clients = 1
			}
			key := fmt.Sprintf("dp%d-%s", dps, v.name)
			ov := *v.overload // fresh copy: setDefaults mutates it
			sink := tsdb.New(0)
			res, err := RunScenario(ScenarioConfig{
				Name:         "ext-overload-" + key,
				Scale:        scale,
				Profile:      profile,
				DPs:          dps,
				Clients:      clients,
				Interarrival: interarrival,
				Seed:         scale.Seed,
				MetricsSink:  sink,
				Overload:     &ov,
			})
			if err != nil {
				return Report{}, err
			}
			results = append(results, summarizeOverloadRun(key, dps, v.name, clients, res, sink))
			if MetricsOutputPath != "" {
				dump = append(dump, sink.Flatten(key+"/")...)
			}
		}
	}

	var b strings.Builder
	b.WriteString("== Extension: end-to-end overload control past the saturation knee (GT3) ==\n")
	fmt.Fprintf(&b, "estimated knee: %.2f jobs/s per decision point (query+report, calibrated stack)\n", capacity)
	b.WriteString("base = 0.5x knee; off = 2x knee, retries unbounded; on = 2x knee, full plane\n")
	b.WriteString("(deadline propagation, shared retry budget, breakers + load-aware failover,\nreserved mesh lane)\n\n")
	fmt.Fprintf(&b, "%-10s %7s %9s %8s %6s %9s %8s %8s %8s %8s %9s\n",
		"run", "clients", "goodput", "p99(s)", "amp", "throttle", "expired", "shed", "lost", "brk-open", "mean div")
	for _, o := range results {
		fmt.Fprintf(&b, "%-10s %7d %9.2f %8.1f %6.2f %9d %8d %8d %8d %8.0f %9.1f\n",
			o.key, o.clients, o.goodput, o.p99, o.amplification,
			o.throttled, o.expired, o.shed, o.connLost, o.breakerOpens, o.meanDiv)
	}
	b.WriteString("\nReading: DiPerF's fleet is closed-loop — each tester waits out its own\n")
	b.WriteString("timeout before submitting again — so past the knee the failure mode is\n")
	b.WriteString("queueing delay plus shed/retry churn rather than unbounded collapse.\n")
	b.WriteString("The plane's wins show up as: retry amplification held near 1 (the off\n")
	b.WriteString("fleet re-offers every shed call up to the attempt cap), sheds cut down\n")
	b.WriteString("because stale requests die at dequeue instead of occupying queue slots\n")
	b.WriteString("(the expired column is work the container never performed), and the\n")
	b.WriteString("reserved lane keeping exchange rounds — and so view divergence — near\n")
	b.WriteString("the unloaded baseline. Goodput for the plane-on fleet stays within the\n")
	b.WriteString("pre-knee plateau's band at every fleet size.\n")

	rows := make([]Row, 0, len(results))
	for _, o := range results {
		rows = append(rows, Row{
			"row":           "overload",
			"run":           o.key,
			"dps":           o.dps,
			"variant":       o.variant,
			"clients":       o.clients,
			"goodput_qps":   o.goodput,
			"p99_s":         o.p99,
			"amplification": o.amplification,
			"throttled":     o.throttled,
			"expired":       o.expired,
			"shed":          o.shed,
			"conn_lost":     o.connLost,
			"breaker_opens": o.breakerOpens,
			"mean_div_cpus": o.meanDiv,
			"exch_rounds":   o.exchRounds,
		})
	}

	if MetricsOutputPath != "" {
		err := writeOutput(MetricsOutputPath, func(w io.Writer) error { return tsdb.WritePoints(w, dump) })
		if err != nil {
			return Report{}, err
		}
		fmt.Fprintf(&b, "\nmetrics time series written to %s (%d points)\n", MetricsOutputPath, len(dump))
	}
	return Report{Text: b.String(), Rows: rows}, nil
}

// summarizeOverloadRun distills one scenario run into a report cell.
func summarizeOverloadRun(key string, dps int, variant string, clients int, res ScenarioResult, sink *tsdb.Registry) overloadOutcome {
	o := overloadOutcome{key: key, dps: dps, variant: variant, clients: clients,
		goodput: postRampGoodput(res), exchRounds: res.ExchangeRounds}

	vals := make([]float64, 0, len(res.DiPerF.Records))
	for _, r := range res.DiPerF.Records {
		vals = append(vals, r.Response.Seconds())
	}
	o.p99 = stats.Percentile(vals, 99)

	cw := res.ClientWire
	if cw.Calls > 0 {
		o.amplification = float64(cw.Attempts) / float64(cw.Calls)
	}
	o.throttled = cw.Throttled
	for _, st := range res.DPStatus {
		o.expired += st.Expired
		o.shed += st.Shed
		o.connLost += st.ConnLost
	}
	o.breakerOpens = lastValue(sink.Points("clients/breaker/open"))
	var divSum float64
	for i := 0; i < dps; i++ {
		divSum += tsdb.Mean(sink.Points(fmt.Sprintf("dp/dp-%d/engine/divergence_l1", i)))
	}
	o.meanDiv = divSum / float64(dps)
	return o
}

// postRampGoodput is mean handled throughput over full windows after the
// tester ramp (first tenth of the run), excluding the partial last
// window — the same plateau math as AnalyzeFaultRun.
func postRampGoodput(res ScenarioResult) float64 {
	curve := res.DiPerF.ThroughputCurve
	w := res.Config.Scale.Window
	if w <= 0 || len(curve) == 0 {
		return 0
	}
	if len(curve) > 1 {
		curve = curve[:len(curve)-1]
	}
	ramp := int(res.Config.Scale.Duration / 10 / w)
	if ramp >= len(curve) {
		ramp = 0
	}
	sum := 0.0
	for _, x := range curve[ramp:] {
		sum += x
	}
	return sum / float64(len(curve)-ramp)
}

// lastValue returns a cumulative series' final sample (0 when empty).
func lastValue(pts []tsdb.Point) float64 {
	if len(pts) == 0 {
		return 0
	}
	return pts[len(pts)-1].V
}

// Command digruber-top is a fleet monitor for DI-GRUBER decision
// points: it polls every broker's Status RPC (with the metrics
// snapshot) on a fixed interval and renders a live table of per-broker
// load, saturation, lifecycle and peer health — top(1) for a brokering
// mesh.
//
// Example against a three-broker mesh:
//
//	digruber-top -broker dp-0=127.0.0.1:7000 -broker dp-1=127.0.0.1:7001 \
//	    -broker dp-2=127.0.0.1:7002 -interval 5s
//
// Every poll is also recorded into a local time-series registry; with
// -dump the aligned series are written as JSONL at exit for offline
// analysis (the same format cmd/experiments -metrics-out emits).
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"digruber/internal/digruber"
	"digruber/internal/tsdb"
	"digruber/internal/vtime"
	"digruber/internal/wire"
)

type brokerList []string

func (b *brokerList) String() string     { return strings.Join(*b, ",") }
func (b *brokerList) Set(v string) error { *b = append(*b, v); return nil }

// broker is one polled decision point.
type broker struct {
	name    string
	addr    string
	client  *wire.Client
	breaker *wire.Breaker

	up   bool
	last digruber.StatusReply

	// WAL append-rate state: the previous poll's wal/appends sample and
	// its time, and the rate derived from the delta.
	walAppends   float64
	walAppendsAt time.Time
	walRate      float64
}

func main() {
	var (
		interval   = flag.Duration("interval", 5*time.Second, "poll period")
		iterations = flag.Int("n", 0, "number of polls (0 = until interrupted)")
		timeout    = flag.Duration("timeout", 10*time.Second, "per-poll RPC timeout")
		dump       = flag.String("dump", "", "write collected time series as JSONL to this file at exit")
		plain      = flag.Bool("plain", false, "append tables instead of redrawing in place")
	)
	var specs brokerList
	flag.Var(&specs, "broker", "decision point as name=host:port (repeatable)")
	flag.Parse()
	if len(specs) == 0 {
		fmt.Fprintln(os.Stderr, "digruber-top: no brokers; use -broker name=host:port")
		os.Exit(2)
	}

	clock := vtime.NewReal()
	// The monitor practices what the plane preaches: poll deadlines ride
	// the wire, one retry budget is shared across the whole fleet (a
	// dead mesh must not turn the monitor into a retry storm), and a
	// per-broker breaker skips polling brokers that stopped answering
	// until a cooldown-spaced probe sees them again.
	metrics := wire.NewClientMetrics()
	budget := wire.NewRetryBudget(clock, 1.0/interval.Seconds(), 2*float64(len(specs)))
	brokers := make([]*broker, 0, len(specs))
	for _, s := range specs {
		parts := strings.SplitN(s, "=", 2)
		if len(parts) != 2 {
			fmt.Fprintf(os.Stderr, "digruber-top: bad -broker %q, want name=host:port\n", s)
			os.Exit(2)
		}
		brokers = append(brokers, &broker{
			name: parts[0],
			addr: parts[1],
			client: wire.NewClient(wire.ClientConfig{
				Node:       "digruber-top",
				ServerNode: parts[0],
				Addr:       parts[1],
				Transport:  wire.TCP{},
				Clock:      clock,
				Metrics:    metrics,
				Retry: wire.RetryPolicy{
					Attempts:    2,
					BaseBackoff: 100 * time.Millisecond,
					Budget:      budget,
				},
				PropagateDeadline: true,
			}),
			breaker: wire.NewBreaker(wire.BreakerConfig{
				Clock:     clock,
				Threshold: 3,
				Cooldown:  4 * *interval,
			}),
		})
	}
	sort.Slice(brokers, func(i, j int) bool { return brokers[i].name < brokers[j].name })
	defer func() {
		for _, b := range brokers {
			b.client.Close()
		}
	}()

	// Every poll lands in a local registry, so the fleet's history can
	// be dumped as aligned series (-dump) just like an experiment run's.
	reg := tsdb.New(0)
	gauges := make(map[string]*tsdb.Gauge)
	gauge := func(name string) *tsdb.Gauge {
		g, ok := gauges[name]
		if !ok {
			g = reg.Gauge(name)
			gauges[name] = g
		}
		return g
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	tk := clock.NewTicker(*interval)
	defer tk.Stop()

	for polls := 0; ; {
		pollAll(brokers, *timeout)
		record(brokers, metrics, reg, gauge, clock.Now())
		render(os.Stdout, brokers, metrics, *plain)
		polls++
		if *iterations > 0 && polls >= *iterations {
			break
		}
		select {
		case <-tk.C():
		case <-sig:
			fmt.Println()
			goto done
		}
	}
done:
	if *dump != "" {
		f, err := os.Create(*dump)
		if err != nil {
			fmt.Fprintln(os.Stderr, "digruber-top:", err)
			os.Exit(1)
		}
		werr := reg.WriteJSONL(f)
		cerr := f.Close()
		if werr != nil || cerr != nil {
			fmt.Fprintln(os.Stderr, "digruber-top: dump failed")
			os.Exit(1)
		}
		fmt.Printf("wrote %d series to %s\n", len(reg.SeriesNames()), *dump)
	}
}

// pollAll fetches every broker's status (with metrics) sequentially —
// a handful of brokers at human refresh rates doesn't need fan-out. A
// broker whose breaker is open is skipped outright until the breaker's
// cooldown admits a probe.
func pollAll(brokers []*broker, timeout time.Duration) {
	for _, b := range brokers {
		if !b.breaker.Allow() {
			b.up = false
			continue
		}
		st, err := wire.Call[digruber.StatusArgs, digruber.StatusReply](
			b.client, digruber.MethodStatus, digruber.StatusArgs{WithMetrics: true}, timeout)
		b.breaker.Record(err)
		if err != nil {
			b.up = false
			continue
		}
		b.up = true
		b.last = st
	}
}

// metric pulls one series' value out of a status metrics snapshot.
func metric(st digruber.StatusReply, series string) (float64, bool) {
	for _, s := range st.Metrics {
		if s.Name == series {
			return s.V, true
		}
	}
	return 0, false
}

// breakerLevel flattens a breaker state for the dump series: 0 closed,
// 1 half-open, 2 open.
func breakerLevel(s wire.BreakerState) float64 {
	switch s {
	case wire.BreakerOpen:
		return 2
	case wire.BreakerHalfOpen:
		return 1
	default:
		return 0
	}
}

// record samples the fleet's latest poll into the local registry.
func record(brokers []*broker, metrics *wire.ClientMetrics, reg *tsdb.Registry, gauge func(string) *tsdb.Gauge, now time.Time) {
	for _, b := range brokers {
		p := "top/" + b.name + "/"
		gauge(p + "poll_breaker").Set(breakerLevel(b.breaker.State()))
		if !b.up {
			gauge(p + "up").Set(0)
			continue
		}
		st := b.last
		gauge(p + "up").Set(1)
		gauge(p + "rate_qps").Set(st.ObservedRate)
		gauge(p + "capacity_qps").Set(st.CapacityRate)
		gauge(p + "inflight").Set(float64(st.InFlight))
		gauge(p + "queue").Set(float64(st.Queued))
		gauge(p + "shed").Set(float64(st.Shed))
		gauge(p + "expired").Set(float64(st.Expired))
		gauge(p + "conn_lost").Set(float64(st.ConnLost))
		draining := 0.0
		if st.State == digruber.StateDraining {
			draining = 1
		}
		gauge(p + "draining").Set(draining)
		// The broker's own series are named in full here, so the
		// consumer rule in internal/lint can match each to what a
		// decision point registers.
		dp := "dp/" + st.Name + "/"
		// Lifecycle counters, when the broker publishes a metrics plane:
		// drains started, drains aborted, retirements completed.
		for _, series := range []string{dp + "lifecycle/drains", dp + "lifecycle/drain_aborts", dp + "lifecycle/retired"} {
			if v, ok := metric(st, series); ok {
				gauge(p + strings.TrimPrefix(series, dp+"lifecycle/")).Set(v)
			}
		}
		// SLO alert summary, when the broker serves an alert source: one
		// state-level series per alerting VO (1 pending, 2 firing; an
		// inactive VO's series simply flatlines at its last level) plus
		// the fleet-visible counts the render panel shows.
		firing, pending := 0, 0
		for _, al := range st.Alerts {
			lvl := 1.0
			if al.State == "firing" {
				lvl = 2
				firing++
			} else {
				pending++
			}
			gauge(p + "alert/" + al.VO + "/state").Set(lvl)
			gauge(p + "alert/" + al.VO + "/burn").Set(al.Burn)
		}
		gauge(p + "alerts_firing").Set(float64(firing))
		gauge(p + "alerts_pending").Set(float64(pending))
		// Gossip dissemination, wire-traffic and write-ahead-log series,
		// when the broker runs the gossip strategy, the byte-accounting
		// plane or the durability layer.
		for _, series := range []string{
			dp + "gossip/view_size", dp + "gossip/pulled", dp + "gossip/relayed",
			dp + "gossip/duplicates", dp + "gossip/resets",
			dp + "wire/bytes_in", dp + "wire/bytes_out",
			dp + "wal/appends", dp + "wal/bytes", dp + "wal/checkpoints", dp + "wal/append_errors",
			dp + "wal/recovered", dp + "wal/truncated", dp + "wal/backfilled", dp + "wal/checkpoint_age_s",
		} {
			if v, ok := metric(st, series); ok {
				gauge(p + strings.ReplaceAll(strings.TrimPrefix(series, dp), "/", "_")).Set(v)
			}
		}
		// Derive the WAL append rate from successive polls of the
		// monotonic appends counter.
		if v, ok := metric(st, dp+"wal/appends"); ok {
			if !b.walAppendsAt.IsZero() && now.After(b.walAppendsAt) {
				b.walRate = (v - b.walAppends) / now.Sub(b.walAppendsAt).Seconds()
			}
			b.walAppends, b.walAppendsAt = v, now
		}
	}
	serving, draining, stopped := fleetStates(brokers)
	gauge("top/fleet/size").Set(float64(serving + draining))
	gauge("top/fleet/serving").Set(float64(serving))
	gauge("top/fleet/draining").Set(float64(draining))
	gauge("top/fleet/stopped").Set(float64(stopped))
	gauge("top/fleet/poll_throttled").Set(float64(metrics.Stats().Throttled))
	reg.Sample(now)
}

// lifecycleState names a polled broker's lifecycle state. A broker that
// stopped answering reads as stopped — "stopped" is never on the wire,
// it is inferred from the failed poll.
func lifecycleState(b *broker) string {
	if !b.up {
		return digruber.StateStopped
	}
	if b.last.State == "" {
		return digruber.StateServing
	}
	return b.last.State
}

// fleetStates tallies the fleet by lifecycle state.
func fleetStates(brokers []*broker) (serving, draining, stopped int) {
	for _, b := range brokers {
		switch lifecycleState(b) {
		case digruber.StateDraining:
			draining++
		case digruber.StateStopped:
			stopped++
		default:
			serving++
		}
	}
	return
}

// render draws the fleet table.
func render(w *os.File, brokers []*broker, metrics *wire.ClientMetrics, plain bool) {
	if !plain {
		fmt.Fprint(w, "\033[H\033[2J")
	}
	serving, draining, stopped := fleetStates(brokers)
	fmt.Fprintf(w, "digruber-top — fleet %d: %d serving, %d draining, %d stopped; %d polls throttled\n",
		serving+draining, serving, draining, stopped, metrics.Stats().Throttled)
	fmt.Fprintf(w, "%-10s %-9s %9s %8s %8s %6s %6s %8s %8s %8s %6s %8s %-12s\n",
		"NAME", "STATE", "BRK", "RATE", "CAP", "INFL", "QUEUE", "SHED", "EXPIRED", "LOST", "VIEW", "RELAYED", "PEERS a/s/d")
	for _, b := range brokers {
		brk := b.breaker.State().String()
		if !b.up {
			fmt.Fprintf(w, "%-10s %-9s %9s %8s %8s %6s %6s %8s %8s %8s %6s %8s %-12s\n",
				b.name, digruber.StateStopped, brk, "-", "-", "-", "-", "-", "-", "-", "-", "-", "-")
			continue
		}
		st := b.last
		state := lifecycleState(b)
		if st.Saturated {
			state += "+sat"
		}
		// Gossip columns: partial-view size and third-party records
		// relayed. "-" for brokers on the full-mesh strategy (they
		// register no gossip series).
		view, relayed := "-", "-"
		if v, ok := metric(st, "dp/"+st.Name+"/gossip/view_size"); ok {
			view = fmt.Sprintf("%.0f", v)
		}
		if v, ok := metric(st, "dp/"+st.Name+"/gossip/relayed"); ok {
			relayed = fmt.Sprintf("%.0f", v)
		}
		alive, suspect, dead := 0, 0, 0
		for _, ph := range st.Peers {
			switch ph.State {
			case "alive":
				alive++
			case "suspect":
				suspect++
			default:
				dead++
			}
		}
		fmt.Fprintf(w, "%-10s %-9s %9s %8.2f %8.2f %6d %6d %8d %8d %8d %6s %8s %d/%d/%d\n",
			b.name, state, brk, st.ObservedRate, st.CapacityRate,
			st.InFlight, st.Queued, st.Shed, st.Expired, st.ConnLost,
			view, relayed, alive, suspect, dead)
	}
	renderWAL(w, brokers)
	renderAlerts(w, brokers)
	if plain {
		fmt.Fprintln(w)
	}
}

// renderWAL draws the WAL/DURABILITY panel: append rate, checkpoint
// age, and what the last restart's recovery had to do (records
// replayed, truncation verdict, peer backfill). The panel only appears
// once any broker publishes wal/* series — fleets running without the
// durability layer keep the classic layout.
func renderWAL(w *os.File, brokers []*broker) {
	shown := false
	for _, b := range brokers {
		if !b.up {
			continue
		}
		st := b.last
		appends, ok := metric(st, "dp/"+st.Name+"/wal/appends")
		if !ok {
			continue
		}
		if !shown {
			fmt.Fprintf(w, "\nWAL / DURABILITY\n%-10s %10s %8s %8s %10s %10s %10s %10s\n",
				"BROKER", "APPENDS/S", "APPENDS", "CKPTS", "CKPT AGE", "RECOVERED", "TRUNCATED", "BACKFILLED")
			shown = true
		}
		age := "-"
		if v, ok := metric(st, "dp/"+st.Name+"/wal/checkpoint_age_s"); ok && v > 0 {
			age = (time.Duration(v) * time.Second).String()
		}
		ckpts, _ := metric(st, "dp/"+st.Name+"/wal/checkpoints")
		recovered, _ := metric(st, "dp/"+st.Name+"/wal/recovered")
		truncated, _ := metric(st, "dp/"+st.Name+"/wal/truncated")
		backfilled, _ := metric(st, "dp/"+st.Name+"/wal/backfilled")
		fmt.Fprintf(w, "%-10s %10.2f %8.0f %8.0f %10s %10.0f %10.0f %10.0f\n",
			b.name, b.walRate, appends, ckpts, age, recovered, truncated, backfilled)
	}
}

// renderAlerts draws the SLO/ALERTS panel: every per-VO alert each
// broker's StatusReply carried, with its burn rate and onset time. The
// panel only appears once any broker publishes an alert summary —
// fleets without the SLO plane keep the classic single-table layout.
func renderAlerts(w *os.File, brokers []*broker) {
	shown := false
	for _, b := range brokers {
		if !b.up || len(b.last.Alerts) == 0 {
			continue
		}
		if !shown {
			fmt.Fprintf(w, "\nSLO ALERTS\n%-10s %-8s %-9s %8s  %s\n", "BROKER", "VO", "STATE", "BURN", "SINCE")
			shown = true
		}
		for _, al := range b.last.Alerts {
			fmt.Fprintf(w, "%-10s %-8s %-9s %8.2f  %s\n",
				b.name, al.VO, al.State, al.Burn, al.Since.Format("15:04:05"))
		}
	}
}

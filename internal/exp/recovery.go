package exp

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"digruber/internal/digruber"
	"digruber/internal/grid"
	"digruber/internal/netsim"
	"digruber/internal/tsdb"
	"digruber/internal/vtime"
	"digruber/internal/wal"
)

// ext-recovery: write-ahead durability under a fleet-wide crash. A
// 3-point durable mesh (each decision point journals to its own
// fault-injectable in-memory store) takes a ramped load to peak; then
// the ENTIRE fleet crashes at once — no live replica holds the state,
// only the stores do — and two of the three stores are damaged (a torn
// tail write, a mid-log bit flip) before the cold restart. Recovery
// must replay checkpoint-then-log, truncate at the damage, backfill
// only the seq-gap from peers, and lose not one acked dispatch. The
// scenario runs entirely on a Manual clock with seeded faults, so it is
// run twice and every observable — recovery stats, views, the metrics
// JSONL byte stream — must replay identically.

// recoverySteps is the scripted ramp length in one-minute steps.
const recoverySteps = 12

// recoveryOffered is the ramped offered load (jobs per step per
// client): 2 at the floor up to 8 at peak.
func recoveryOffered(step int) int {
	n := 2 + step/2
	if n > 8 {
		n = 8
	}
	return n
}

// recoveryOutcome is everything one scripted recovery run observes.
type recoveryOutcome struct {
	// Acked counts dispatches the clients got a positive answer for
	// before the crash; Lost counts those missing from any decision
	// point's view after recovery (the headline must be zero).
	Acked int
	Lost  int
	// Unjournaled counts acked dispatches that existed ONLY in their
	// origin's write-ahead store at crash time (never exchanged) — the
	// records a snapshot could not have saved.
	Unjournaled int
	// Recoveries is each decision point's recovery record.
	Recoveries map[string]digruber.RecoveryStats
	// TruncatedDPs counts stores where recovery hit a damaged log,
	// CorruptCkptDPs stores where the checkpoint itself failed its CRC;
	// Recovered and Backfilled sum the per-point counts.
	TruncatedDPs   int
	CorruptCkptDPs int
	Recovered      int
	Backfilled     int
	// PostOffered/PostHandled are the after-recovery wave — service
	// continues.
	PostOffered int
	PostHandled int
	// Views is each decision point's final per-site free-CPU view.
	Views map[string][]int
	// MetricsJSONL is the full metrics-plane dump, for byte-identity
	// across runs.
	MetricsJSONL []byte
}

// runRecoveryScenario drives one scripted fleet-crash run.
func runRecoveryScenario() (recoveryOutcome, error) {
	const nDP = 3
	clock := vtime.NewManual(Epoch)
	reg := tsdb.New(0)
	faultRNG := netsim.Stream(7, "exp.recovery.faults")

	sites := idleSites("rc-site-%d", 3, 600)
	stores := make([]*wal.MemStore, nDP)
	f, err := NewFleet(FleetSpec{
		Clock: clock, Metrics: reg, Points: nDP, Clients: nDP,
		Sites: func() []grid.Status { return sites },
		Point: func(i int, c *digruber.Config) {
			c.Name = fmt.Sprintf("rc-dp-%d", i)
			c.Addr = fmt.Sprintf("rc/dp-%d", i)
			stores[i] = wal.NewMemStore()
			// A small cadence so the run exercises checkpoint + tail
			// replay, not just raw log replay.
			c.Durability = &digruber.DurabilityConfig{Store: stores[i], CheckpointEvery: 16}
		},
		Client: func(i int, c *digruber.ClientConfig) {
			c.Name = fmt.Sprintf("rc-client-%d", i)
			c.RNG = netsim.Stream(int64(i), "exp.recovery.client")
		},
	})
	if err != nil {
		return recoveryOutcome{}, err
	}
	defer f.Close()
	dps := f.Points()

	var out recoveryOutcome
	var acked []string
	seq := 0
	submitWave := func(perClient int, record bool) int {
		handled := 0
		for k := 0; k < perClient; k++ {
			for ci := 0; ci < nDP; ci++ {
				id := fmt.Sprintf("rc-%05d", seq)
				seq++
				if f.Submit(ci, id, "atlas", 24*time.Hour).Handled {
					handled++
					if record {
						acked = append(acked, id)
					}
				}
			}
		}
		return handled
	}

	// Ramp to peak. Each step: submit, exchange, quiesce, advance,
	// sample — the metrics plane is a pure function of the script.
	for step := 0; step < recoverySteps; step++ {
		submitWave(recoveryOffered(step), true)
		if err := f.Tick(dps, true); err != nil {
			return recoveryOutcome{}, err
		}
	}

	// Final acked-but-never-exchanged burst on rc-dp-0 only (the store
	// that stays undamaged): these records exist solely in its WAL, so
	// the replay — not any peer — must bring them back.
	preBurst := len(acked)
	for k := 0; k < 5; k++ {
		id := fmt.Sprintf("rc-burst-%02d", k)
		if f.Submit(0, id, "atlas", 24*time.Hour).Handled {
			acked = append(acked, id)
		}
	}
	out.Unjournaled = len(acked) - preBurst
	if err := f.Quiesce(); err != nil {
		return recoveryOutcome{}, err
	}
	out.Acked = len(acked)

	// Peak-load fleet-wide crash: every decision point at once.
	for _, dp := range dps {
		dp.Crash()
	}
	// Damage two of the three stores while the fleet is down: a torn
	// tail write on rc-dp-1's log (crash mid-append) and a bit flip in
	// the middle of rc-dp-2's checkpoint (silent media corruption of the
	// snapshot itself). Both draws come from a seeded stream, so a
	// second run damages identical bits.
	if size := stores[1].Size("wal.log"); size > 8 {
		stores[1].Truncate("wal.log", size-int64(1+faultRNG.Intn(7)))
	}
	if size := stores[2].Size("checkpoint"); size > 0 {
		stores[2].FlipBit("checkpoint", size/3+faultRNG.Int63n(size/3), uint(faultRNG.Intn(8)))
	}
	clock.Advance(5 * time.Minute)

	// Cold restart from the stores, then two exchange rounds (the second
	// is the step's own) to spread the replayed-and-backfilled state back
	// across the mesh.
	for _, dp := range dps {
		if err := dp.Restart(); err != nil {
			return recoveryOutcome{}, fmt.Errorf("exp: restart %s: %w", dp.Name(), err)
		}
	}
	for _, dp := range dps {
		dp.ExchangeNow()
	}
	if err := f.Tick(dps, true); err != nil {
		return recoveryOutcome{}, err
	}

	out.Recoveries = make(map[string]digruber.RecoveryStats, nDP)
	for _, dp := range dps {
		rec := dp.LastRecovery()
		out.Recoveries[dp.Name()] = rec
		out.Recovered += rec.Recovered
		out.Backfilled += rec.Backfilled
		if rec.Truncated {
			out.TruncatedDPs++
		}
		if rec.CheckpointCorrupt {
			out.CorruptCkptDPs++
		}
	}

	// Zero acked-dispatch loss: every acked JobID must be in every
	// decision point's recovered view.
	for _, dp := range dps {
		have := make(map[string]bool)
		for _, d := range dp.Engine().ExportSnapshot() {
			have[d.JobID] = true
		}
		for _, id := range acked {
			if !have[id] {
				out.Lost++
			}
		}
	}

	// Service continues: one more wave through the recovered fleet.
	out.PostOffered = 3 * nDP
	out.PostHandled = submitWave(3, false)
	if err := f.Tick(nil, false); err != nil {
		return recoveryOutcome{}, err
	}

	out.Views = make(map[string][]int, nDP)
	for _, dp := range dps {
		view := make([]int, len(sites))
		for si, s := range sites {
			view[si] = dp.Engine().EstFreeCPUs(s.Name)
		}
		out.Views[dp.Name()] = view
	}

	var jsonl bytes.Buffer
	if err := reg.WriteJSONL(&jsonl); err != nil {
		return recoveryOutcome{}, err
	}
	out.MetricsJSONL = jsonl.Bytes()
	return out, nil
}

// recoveryOutcomesEqual compares two runs' observables (the metrics
// stream is compared separately, byte for byte).
func recoveryOutcomesEqual(a, b recoveryOutcome) bool {
	if a.Acked != b.Acked || a.Lost != b.Lost || a.Unjournaled != b.Unjournaled ||
		a.TruncatedDPs != b.TruncatedDPs || a.CorruptCkptDPs != b.CorruptCkptDPs ||
		a.Recovered != b.Recovered ||
		a.Backfilled != b.Backfilled || a.PostHandled != b.PostHandled {
		return false
	}
	if len(a.Recoveries) != len(b.Recoveries) || len(a.Views) != len(b.Views) {
		return false
	}
	//lint:allow mapiter -- pure equality predicate; the result is independent of iteration order
	for name, ra := range a.Recoveries {
		if b.Recoveries[name] != ra {
			return false
		}
	}
	//lint:allow mapiter -- pure equality predicate; the result is independent of iteration order
	for name, va := range a.Views {
		vb := b.Views[name]
		if len(va) != len(vb) {
			return false
		}
		for i := range va {
			if va[i] != vb[i] {
				return false
			}
		}
	}
	return true
}

// runRecoveryExtension (ext-recovery) runs the fleet-crash scenario
// twice and reports recovery fidelity plus replay determinism.
func runRecoveryExtension(scale Scale) (Report, error) {
	first, err := runRecoveryScenario()
	if err != nil {
		return Report{}, err
	}
	second, err := runRecoveryScenario()
	if err != nil {
		return Report{}, err
	}
	replayIdentical := recoveryOutcomesEqual(first, second) &&
		bytes.Equal(first.MetricsJSONL, second.MetricsJSONL)

	names := make([]string, 0, len(first.Recoveries))
	for name := range first.Recoveries {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	b.WriteString("== Extension: write-ahead durability under a fleet-wide crash (Manual clock, seeded faults) ==\n")
	fmt.Fprintf(&b, "acked before crash: %d dispatches (%d of them journaled only at their origin)\n",
		first.Acked, first.Unjournaled)
	b.WriteString("whole fleet crashed at peak; rc-dp-1's log torn mid-append, rc-dp-2's checkpoint bit-flipped\n")
	for _, name := range names {
		rec := first.Recoveries[name]
		verdict := "clean replay"
		switch {
		case rec.CheckpointCorrupt:
			verdict = fmt.Sprintf("checkpoint failed CRC, discarded; backfilled %d from peers", rec.Backfilled)
		case rec.Truncated:
			verdict = fmt.Sprintf("truncated (%s), backfilled %d from peers", rec.TruncateReason, rec.Backfilled)
		}
		fmt.Fprintf(&b, "  %s: checkpoint=%v replayed=%d %s\n",
			name, rec.CheckpointRestored, rec.Recovered, verdict)
	}
	fmt.Fprintf(&b, "acked-dispatch loss after recovery: %d of %d (across every point's view)\n",
		first.Lost, first.Acked)
	fmt.Fprintf(&b, "post-recovery wave: %d/%d handled\n", first.PostHandled, first.PostOffered)
	fmt.Fprintf(&b, "replay determinism: outcome and %d-byte metrics stream identical across two runs: %v\n",
		len(first.MetricsJSONL), replayIdentical)
	b.WriteString("\nReading: the write-ahead append happens before a dispatch is acked, so\n")
	b.WriteString("a fleet-wide crash loses nothing that was promised — even records no\n")
	b.WriteString("peer ever saw. Damaged logs are truncated at the first torn or corrupt\n")
	b.WriteString("record, a checkpoint that fails its CRC is discarded whole (never a\n")
	b.WriteString("panic, never corrupt state served), and the recovered vector turns the\n")
	b.WriteString("snapshot pull into a seq-gap backfill. The whole run, fault bits\n")
	b.WriteString("included, is a pure function of its seeds.\n")

	rows := []Row{{
		"row": "recovery", "acked": first.Acked, "lost": first.Lost,
		"unjournaled": first.Unjournaled, "recovered": first.Recovered,
		"backfilled": first.Backfilled, "truncated_dps": first.TruncatedDPs,
		"ckpt_corrupt_dps": first.CorruptCkptDPs,
		"post_handled":     first.PostHandled, "post_offered": first.PostOffered,
		"replay_identical": replayIdentical,
	}}
	for _, name := range names {
		rec := first.Recoveries[name]
		rows = append(rows, Row{
			"row": "recovery-dp", "dp": name,
			"checkpoint_restored": rec.CheckpointRestored,
			"checkpoint_corrupt":  rec.CheckpointCorrupt,
			"recovered":           rec.Recovered,
			"truncated":           rec.Truncated,
			"reason":              rec.TruncateReason,
			"backfilled":          rec.Backfilled,
		})
	}

	if MetricsOutputPath != "" {
		err := writeOutput(MetricsOutputPath, func(w io.Writer) error {
			_, err := w.Write(first.MetricsJSONL)
			return err
		})
		if err != nil {
			return Report{}, err
		}
		fmt.Fprintf(&b, "\nmetrics time series written to %s\n", MetricsOutputPath)
	}
	return Report{Text: b.String(), Rows: rows}, nil
}

package exp

import (
	"fmt"
	"io"
	"os"

	"digruber/internal/diperf"
)

// Row is one machine-readable result record — a window of a DiPerF
// curve, a table line, or a run summary. Every row carries a "row" key
// naming its kind; cmd/experiments -json emits rows as JSONL.
type Row map[string]any

// Report is what an experiment returns: the paper-style text rendering
// plus the same results as structured rows.
type Report struct {
	// Text is the human-readable report (what -run prints).
	Text string
	// Rows is the machine-readable form of the same results.
	Rows []Row
}

// writeOutput creates the file an experiment was asked to leave behind
// (-metrics-out, -alerts-out, -trace-out), lets write fill it and closes
// it. A write error wins over the close error; on success the close
// error is the result, because that is where a full disk shows up.
func writeOutput(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("exp: output: %w", err)
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("exp: output %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("exp: output: %w", err)
	}
	return nil
}

// diperfRows flattens a DiPerF result into window rows plus a summary
// row, tagged with the scenario name.
func diperfRows(scenario string, r diperf.Result) []Row {
	rows := make([]Row, 0, len(r.LoadCurve)+1)
	for i := range r.LoadCurve {
		row := Row{
			"row":      "window",
			"scenario": scenario,
			"window":   i,
			"t_s":      float64(i) * r.Window.Seconds(),
			"load":     r.LoadCurve[i],
		}
		if i < len(r.ResponseCurve) {
			row["response_s"] = r.ResponseCurve[i]
		}
		if i < len(r.ThroughputCurve) {
			row["tput_qps"] = r.ThroughputCurve[i]
		}
		rows = append(rows, row)
	}
	return append(rows, Row{
		"row":             "summary",
		"scenario":        scenario,
		"ops":             r.Ops,
		"handled":         r.Handled,
		"errors":          r.Errors,
		"mean_response_s": r.ResponseSummary.Mean,
		"peak_response_s": r.PeakResponse,
		"peak_tput_qps":   r.PeakThroughput,
	})
}

// accuracyRows flattens a Figure 8/12 sweep.
func accuracyRows(stack string, points []AccuracyPoint) []Row {
	rows := make([]Row, 0, len(points))
	for _, p := range points {
		rows = append(rows, Row{
			"row":              "accuracy",
			"stack":            stack,
			"interval_s":       p.Interval.Seconds(),
			"handled_accuracy": p.HandledAccuracy,
			"overall_accuracy": p.OverallAccuracy,
			"handled_pct":      p.HandledPct,
		})
	}
	return rows
}

// tab3Rows flattens the GRUB-SIM table.
func tab3Rows(trs []Tab3Row) []Row {
	rows := make([]Row, 0, len(trs))
	for _, r := range trs {
		rows = append(rows, Row{
			"row":             "tab3",
			"stack":           r.Stack,
			"initial_dps":     r.InitialDPs,
			"additional_dps":  r.AdditionalDPs,
			"final_dps":       r.FinalDPs,
			"mean_response_s": r.MeanResponse.Seconds(),
			"tput_qps":        r.Throughput,
		})
	}
	return rows
}

// scenarioRows is diperfRows plus the scenario-level outcome row.
func scenarioRows(res ScenarioResult) []Row {
	rows := diperfRows(res.Config.Name, res.DiPerF)
	return append(rows, Row{
		"row":              "scenario",
		"scenario":         res.Config.Name,
		"dps":              res.Config.DPs,
		"clients":          res.Config.Clients,
		"util":             res.Util,
		"completed_jobs":   res.CompletedJobs,
		"exchange_rounds":  res.ExchangeRounds,
		"handled_accuracy": res.HandledAccuracy,
	})
}

package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/manual-rows.golden from the current tree")

// manualExperiments are the experiments that run wholly on a Manual
// clock: their rows and metrics dumps are a pure function of the code.
var manualExperiments = []string{"ext-gossip", "ext-elastic", "ext-slo", "ext-recovery"}

// TestManualExperimentsMatchParent is the replay-identity gate a
// behaviour-preserving refactor rests on. The golden holds, experiment
// by experiment, exactly the rows `cmd/experiments -run <id> -json`
// prints (same encoder, same "experiment" tag) followed by one line with
// the SHA-256 of the file `-metrics-out` leaves and, for ext-slo, of the
// `-alerts-out` file. It was recorded with -update at the parent of the
// PR that introduced exp.Fleet (d84ac00), so equality means the harness
// port moved nothing. A PR that moves a row on purpose re-records it,
//
//	go test ./internal/exp -run TestManualExperimentsMatchParent -update
//
// and explains each difference in EXPERIMENTS.md.
//
// All four run in this one process, one after another, as they do under
// the CLI with -run all: gob's types are numbered at init, so the byte
// counts a fleet reports (ext-gossip's bytes_per_dp_round, every
// wire/bytes_* series) do not depend on what the process encoded before,
// and CI's -count=2 run checks that they do not depend on the order.
func TestManualExperimentsMatchParent(t *testing.T) {
	var got []byte
	for _, id := range manualExperiments {
		lines, err := goldenLines(id, filepath.Join(t.TempDir(), "out"))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got = append(got, lines...)
	}

	const golden = "testdata/manual-rows.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("line %d differs from %s\n got: %s\nwant: %s", i+1, golden, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%d lines, %s has %d", len(gotLines), golden, len(wantLines))
}

// goldenLines runs one experiment the way cmd/experiments does, its
// output files next to path, and returns its rows plus the digests of
// those files.
func goldenLines(id, path string) ([]byte, error) {
	e, ok := Lookup(id)
	if !ok {
		return nil, fmt.Errorf("experiment %s is not registered", id)
	}
	defer func(metrics, alerts string) { MetricsOutputPath, AlertsOutputPath = metrics, alerts }(MetricsOutputPath, AlertsOutputPath)
	MetricsOutputPath = path + ".metrics"
	AlertsOutputPath = path + ".alerts"
	report, err := e.Run(BenchScale())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, row := range report.Rows {
		out := make(map[string]any, len(row)+1)
		for k, v := range row {
			out[k] = v
		}
		out["experiment"] = id
		if err := enc.Encode(out); err != nil {
			return nil, err
		}
	}
	digests := map[string]any{"experiment": id, "row": "output-digest"}
	for key, file := range map[string]string{"metrics_sha256": MetricsOutputPath, "alerts_sha256": AlertsOutputPath} {
		data, err := os.ReadFile(file)
		if os.IsNotExist(err) {
			continue // only ext-slo writes an alerts file
		}
		if err != nil {
			return nil, err
		}
		digests[key] = fmt.Sprintf("%x", sha256.Sum256(data))
	}
	if err := enc.Encode(digests); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

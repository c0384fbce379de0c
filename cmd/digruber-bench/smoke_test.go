package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// tinyScale runs every phase in a fraction of a second.
var tinyScale = scale{
	warm: 20, count: 40, every: 10, setups: 2,
	ramp: 5 * time.Millisecond, meshEvery: 10 * time.Millisecond, speedWin: 5 * time.Millisecond, ledgerDiv: 100,
}

func smoke(t *testing.T, traced bool, seed int64) []*result {
	t.Helper()
	tmp := t.TempDir()
	runs := make([]*run, len(specs))
	host := &hostSpeed{window: tinyScale.speedWin}
	for i, s := range specs {
		runs[i] = newRun(s, seed, tinyScale, traced, 4, 30*time.Millisecond, tmp, host)
	}
	results, err := runAll(runs)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// benchmarkJSON is the whole definition, as the driver reads it.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// All five workloads at tiny scale, planes off and on: every metric
// BENCHMARK.json names comes out once per workload with its declared
// unit, every check passes, and nothing fails.
func TestSmokeEmitsEveryDeclaredMetric(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkJSON
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(def.Workloads), len(specs))
	}
	for i, w := range def.Workloads {
		if w.Name != specs[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the harness", i, w.Name, specs[i].name)
		}
	}
	for _, mode := range []struct {
		traced   bool
		declared []struct{ Name, Unit, Better string }
		defs     []metricDef
	}{{false, def.EndToEnd, endToEnd}, {true, def.PerLayer, perLayer}} {
		if len(mode.declared) != len(mode.defs) {
			t.Errorf("traced=%v: BENCHMARK.json declares %d metrics, the harness %d", mode.traced, len(mode.declared), len(mode.defs))
		}
		for i, d := range mode.defs {
			if i < len(mode.declared) && (mode.declared[i].Name != d.name || mode.declared[i].Better != d.better) {
				t.Errorf("metric %d: BENCHMARK.json has %v, the harness %v", i, mode.declared[i], d)
			}
		}
		for _, res := range smoke(t, mode.traced, 1) {
			for _, c := range res.Checks {
				if !c.OK {
					t.Errorf("%s traced=%v: check %s failed: %s", res.Workload, mode.traced, c.Name, c.Detail)
				}
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d decisions failed", res.Workload, mode.traced, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(mode.declared) {
				t.Errorf("%s traced=%v: emitted %d metrics, BENCHMARK.json declares %d", res.Workload, mode.traced, len(res.Metrics), len(mode.declared))
			}
			for _, d := range mode.declared {
				m, ok := res.Metrics[d.Name]
				if !ok {
					t.Errorf("%s: metric %s not emitted", res.Workload, d.Name)
				} else if m.Unit != d.Unit {
					t.Errorf("%s: metric %s has unit %q, declared %q", res.Workload, d.Name, m.Unit, d.Unit)
				}
			}
		}
	}
}

// Equal seeds give equal decisions and equal exact counts; another seed
// gives other decisions on the generated grid.
func TestCountPhaseIsAFunctionOfTheSeed(t *testing.T) {
	count := func(s spec, seed int64) (digest string, wireBytes, msgs int64) {
		f, _, err := newRun(s, seed, tinyScale, false, 4, time.Millisecond, t.TempDir(), nil).build(fleetOpts{memWAL: true})
		if err != nil {
			t.Fatal(err)
		}
		defer f.close()
		cr, err := f.countPhase(tinyScale.count, tinyScale.every)
		if err != nil {
			t.Fatal(err)
		}
		return decisionDigest(cr.placements), cr.after.wireBytes - cr.before.wireBytes, cr.after.received - cr.before.received
	}
	for _, s := range specs {
		d1, w1, m1 := count(s, 7)
		d2, w2, m2 := count(s, 7)
		if d1 != d2 || w1 != w2 || m1 != m2 {
			t.Errorf("%s: seed 7 gave (%s, %d B, %d msgs) then (%s, %d B, %d msgs)", s.name, d1, w1, m1, d2, w2, m2)
		}
		if d3, _, _ := count(s, 8); !s.toy && d3 == d1 {
			t.Errorf("%s: seeds 7 and 8 gave the same decisions", s.name)
		}
	}
}

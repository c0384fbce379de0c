package exp

import (
	"fmt"
	"strings"
	"testing"
)

// TestDynamicLiveGrowsFleet is ext-dynamic-live's acceptance: 80 clients
// on one GT3 decision point saturate it, its own verdict is the pressure
// a started Controller hears, and the fleet grows with the clients
// spread evenly over it. How far it grows inside the run depends on a
// Scaled clock, so only the floor is pinned.
func TestDynamicLiveGrowsFleet(t *testing.T) {
	scale := BenchScale()
	report, err := runDynamicLiveExtension(scale)
	if err != nil {
		t.Fatal(err)
	}
	row := report.Rows[0]
	dps, deployments, events := row["final_dps"].(int), row["deployments"].(int), row["saturation_events"].(int)
	if dps < 2 || deployments != dps-1 {
		t.Fatalf("final_dps = %d with %d deployments, want growth from 1 by one deployment each", dps, deployments)
	}
	if events < 1 {
		t.Fatalf("the fleet grew with %d saturation events on its members' detectors", events)
	}
	bindings := map[string]int{}
	for i := 0; i < scale.Clients; i++ {
		bindings[fmt.Sprintf("dyn-dp-%d", i%dps)]++
	}
	if want := fmt.Sprintf("client bindings after rebalancing: %v\n", bindings); !strings.Contains(report.Text, want) {
		t.Fatalf("clients not spread round-robin over %d points; want %q in:\n%s", dps, want, report.Text)
	}
}

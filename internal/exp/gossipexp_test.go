package exp

import (
	"bytes"
	"reflect"
	"testing"
)

// The ext-gossip acceptance gates: deterministic replay, per-point
// traffic sublinear in fleet size, and divergence within the full-mesh
// baseline's envelope. All at bench fleet sizes so `go test` stays
// seconds, with the same code path the full scale runs.

func mustGossipRun(t *testing.T, r gossipRun) gossipOutcome {
	t.Helper()
	out, _, err := runGossipFleet(r, 1)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func gossipRunByKey(t *testing.T, n int, key string) gossipRun {
	t.Helper()
	for _, r := range gossipRuns(n) {
		if r.key == key {
			return r
		}
	}
	t.Fatalf("no run %q in gossipRuns(%d)", key, n)
	return gossipRun{}
}

// TestGossipExtensionReplayByteIdentical: a seeded Manual-clock run is
// fully deterministic — the outcome struct AND the complete metrics
// registry (every sampled series, relay and duplicate accounting
// included) replay byte-for-byte.
func TestGossipExtensionReplayByteIdentical(t *testing.T) {
	r := gossipRunByKey(t, 10, "gossip-f4-n10")
	out1, reg1, err := runGossipFleet(r, 1)
	if err != nil {
		t.Fatal(err)
	}
	out2, reg2, err := runGossipFleet(r, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out1, out2) {
		t.Fatalf("replay outcome diverged:\n run1 %+v\n run2 %+v", out1, out2)
	}
	var d1, d2 bytes.Buffer
	if err := reg1.WriteJSONL(&d1); err != nil {
		t.Fatal(err)
	}
	if err := reg2.WriteJSONL(&d2); err != nil {
		t.Fatal(err)
	}
	if d1.Len() == 0 {
		t.Fatal("replay dump is empty; the registry recorded nothing")
	}
	if !bytes.Equal(d1.Bytes(), d2.Bytes()) {
		t.Fatalf("replay metrics dump diverged: %d vs %d bytes and/or content", d1.Len(), d2.Len())
	}
}

// TestGossipBytesSublinearInFleetSize: tripling the fleet roughly
// triples the mesh's per-point traffic (every point calls every other)
// but moves gossip's much less — per-point cost tracks the fanout, not
// N. Thresholds sit well clear of the measured values (mesh ~3.0x,
// gossip-f2 ~1.5x) so scheduler noise cannot flake them.
func TestGossipBytesSublinearInFleetSize(t *testing.T) {
	mesh10 := mustGossipRun(t, gossipRunByKey(t, 10, "mesh-n10"))
	mesh30 := mustGossipRun(t, gossipRunByKey(t, 30, "mesh-n30"))
	g10 := mustGossipRun(t, gossipRunByKey(t, 10, "gossip-f2-n10"))
	g30 := mustGossipRun(t, gossipRunByKey(t, 30, "gossip-f2-n30"))

	meshRatio := mesh30.BytesPerDPRound / mesh10.BytesPerDPRound
	gossipRatio := g30.BytesPerDPRound / g10.BytesPerDPRound
	t.Logf("bytes/dp/round 10→30: mesh %.0f→%.0f (%.2fx), gossip-f2 %.0f→%.0f (%.2fx)",
		mesh10.BytesPerDPRound, mesh30.BytesPerDPRound, meshRatio,
		g10.BytesPerDPRound, g30.BytesPerDPRound, gossipRatio)
	if meshRatio < 2.2 {
		t.Fatalf("mesh per-point traffic grew only %.2fx over a 3x fleet; the linear baseline is broken", meshRatio)
	}
	if gossipRatio > 2.0 {
		t.Fatalf("gossip per-point traffic grew %.2fx over a 3x fleet; not sublinear", gossipRatio)
	}
	if g30.BytesPerDPRound >= mesh30.BytesPerDPRound {
		t.Fatalf("at 30 points gossip (%.0f B/dp/round) is not cheaper than mesh (%.0f)",
			g30.BytesPerDPRound, mesh30.BytesPerDPRound)
	}
	if g30.Relayed == 0 {
		t.Fatal("gossip run relayed nothing; convergence degenerated to direct delivery")
	}
}

// TestGossipDivergenceWithinMeshBound: at the same exchange interval,
// fanout-4 gossip's boundary staleness stays within 2x the full-mesh
// baseline (measured ~1.02x at 30 points), and both converge: the
// final post-round divergence is a small residual, not a growing lag.
func TestGossipDivergenceWithinMeshBound(t *testing.T) {
	mesh := mustGossipRun(t, gossipRunByKey(t, 30, "mesh-n30"))
	g := mustGossipRun(t, gossipRunByKey(t, 30, "gossip-f4-n30"))
	t.Logf("mean divergence: mesh %.2f, gossip-f4 %.2f; final: mesh %.2f, gossip-f4 %.2f",
		mesh.MeanDiv, g.MeanDiv, mesh.FinalDiv, g.FinalDiv)
	if mesh.MeanDiv <= 0 {
		t.Fatal("mesh baseline divergence is zero; the staleness probe is measuring nothing")
	}
	if g.MeanDiv > 2*mesh.MeanDiv {
		t.Fatalf("gossip mean divergence %.2f exceeds 2x the mesh baseline %.2f", g.MeanDiv, mesh.MeanDiv)
	}
	if mesh.FinalDiv != 0 {
		t.Fatalf("mesh residual divergence %.2f; the flood should fully converge each interval", mesh.FinalDiv)
	}
	if g.FinalDiv > mesh.MeanDiv {
		t.Fatalf("gossip residual divergence %.2f exceeds one interval's news (%.2f); not converging", g.FinalDiv, mesh.MeanDiv)
	}
}

// TestGossipExtensionRegistered: ext-gossip is in the experiment
// registry, so cmd/experiments -run ext-gossip reaches it.
func TestGossipExtensionRegistered(t *testing.T) {
	for _, e := range Experiments() {
		if e.ID == "ext-gossip" {
			if e.Run == nil {
				t.Fatal("ext-gossip registered without a Run func")
			}
			return
		}
	}
	t.Fatal("ext-gossip not in the experiment registry")
}

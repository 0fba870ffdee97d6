package core

import (
	"fmt"
	"testing"

	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/oracle"
	"bpart/internal/partaudit"
	"bpart/internal/telemetry"
)

// maxOraclePieces bounds the layers the exact oracle checks: 3^12 steps.
const maxOraclePieces = 12

// The paper's combine pairs the vertex-lightest group with the heaviest
// and freezes what lands in the ε band. internal/oracle's MaxFreeze is the
// most groups any combine of the same pieces could freeze; per layer,
// read from the run's audit events, BPart must come within one of it.
func TestCombineWithinOneOfMaxFreeze(t *testing.T) {
	graphs := map[string]*graph.Graph{}
	for _, d := range gen.Datasets() {
		g, err := gen.Preset(d, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		graphs[string(d)] = g
	}
	planted, err := plantedGraphs()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plantedProbs {
		for _, seed := range plantedSeeds {
			graphs[fmt.Sprintf("planted p=%.2f seed %d", p, seed)] = planted[[2]float64{p, float64(seed)}]
		}
	}
	checked := 0
	for name, g := range graphs {
		for _, k := range []int{4, 8} {
			checked += checkCombine(t, fmt.Sprintf("%s k=%d", name, k), g, k)
		}
	}
	if checked < len(graphs) {
		t.Fatalf("only %d layers had <= %d pieces over %d graphs", checked, maxOraclePieces, len(graphs))
	}
}

// checkCombine runs BPart on g under a Memory tracer and checks every layer
// of at most maxOraclePieces pieces against the oracle, returning how many
// it checked.
func checkCombine(t *testing.T, name string, g *graph.Graph, k int) int {
	t.Helper()
	b, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := telemetry.NewMemory()
	b.SetTelemetry(m, nil)
	if _, err := b.Partition(g, k); err != nil {
		t.Fatal(err)
	}
	// Each layer's last window holds its pieces' final |V_i| and |E_i|.
	lastWindow := map[int64]telemetry.Record{}
	for _, r := range m.Find("audit.window") {
		lastWindow[r.Attr("layer").(int64)] = r
	}
	checked := 0
	for _, r := range m.Find("audit.layer") {
		layer := r.Attr("layer").(int64)
		win, ok := lastWindow[layer]
		if !ok {
			t.Fatalf("%s: layer %d has no audit.window", name, layer)
		}
		pv, pe := win.Attr("piece_v").([]int), win.Attr("piece_e").([]int)
		if len(pv) > maxOraclePieces {
			continue
		}
		frozen := 0
		for _, grp := range r.Attr("groups").([]partaudit.LayerGroup) {
			if grp.Final >= 0 {
				frozen++
			}
		}
		best := oracle.MaxFreeze(pv, pe, r.Attr("target_v").(float64), r.Attr("target_e").(float64), r.Attr("epsilon").(float64))
		if frozen < best-1 {
			t.Errorf("%s: layer %d of %d pieces froze %d groups; the best combine freezes %d", name, layer, len(pv), frozen, best)
		}
		checked++
	}
	return checked
}

package core

import (
	"fmt"
	"testing"

	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/oracle"
	"bpart/internal/partaudit"
	"bpart/internal/partition"
	"bpart/internal/telemetry"
)

// maxOraclePieces bounds the layers the exact oracle checks: 3^12 steps.
const maxOraclePieces = 12

// The paper's combine pairs the vertex-lightest group with the heaviest
// and freezes what lands in the ε band. internal/oracle's MaxFreeze is the
// most groups any combine of the same pieces could freeze; per layer,
// read from the run's audit events, BPart must come within one of it.
func TestCombineWithinOneOfMaxFreeze(t *testing.T) {
	graphs := oracleGraphs(t)
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

// oracleGraphs is the three presets at test scale and the planted graphs,
// by name.
func oracleGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
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
	return graphs
}

// maxJumpPieces bounds the skipped layers the exact oracle checks: the
// most pieces oracle.MaxFreeze takes.
const maxJumpPieces = 16

// jumpDepartures lists the test-scale cells where some combine of a skipped
// layer's pieces could freeze a group. The cells where the paper's own
// pairing would have, so that the jump moves the assignment, are at larger
// scales (DESIGN.md, internal/core); none is here.
var jumpDepartures = map[string]string{
	"friendster-sim k=16": "layer 3's 16 pieces for 2 parts: the exact combine freezes 1 group, the paper's pairing none",
}

// pairedFreeze is how many groups the paper's pairing freezes from pieces
// of the given sizes, combined down to nr groups as the layer loop does.
func pairedFreeze(b *BPart, pv, pe []int, nr int, tv, te float64) int {
	groups := make([]group, len(pv))
	for i := range groups {
		groups[i] = group{v: pv[i], e: pe[i], pieces: []int{i}}
	}
	for len(groups) > nr {
		groups = combineRound(groups, max((len(groups)+1)/2, nr), nil)
	}
	frozen := 0
	for _, grp := range groups {
		if b.fits(grp.v, grp.e, tv, te) {
			frozen++
		}
	}
	return frozen
}

// A residual whose totals miss nr parts' band makes the layer loop jump to
// its last layer (bpart.go). Every layer it skips is streamed here as the
// loop would have streamed it, on the same residual at the same piece
// count. The paper's pairing must freeze no group of it, so the jump drops
// only work the loop threw away, and no combine at all may, unless the cell
// is a listed departure.
func TestJumpSkipsOnlyFreezelessLayers(t *testing.T) {
	checked, unchecked, jumps := 0, 0, 0
	departed := map[string]bool{}
	for name, g := range oracleGraphs(t) {
		for _, k := range []int{4, 8, 16, 32} {
			cell := fmt.Sprintf("%s k=%d", name, k)
			tv, te := float64(g.NumVertices())/float64(k), float64(g.NumEdges())/float64(k)
			// The layer loop is the same with and without refine, and
			// without it each layer's frozen parts are exactly its final
			// ids: the residual before a layer is every vertex whose part
			// is one of the last nr.
			b, err := New(Config{DisableRefine: true})
			if err != nil {
				t.Fatal(err)
			}
			a, tr, err := b.PartitionWithTrace(g, k)
			if err != nil {
				t.Fatal(err)
			}
			prev, nr := 0, k // the layer last streamed, and the parts still wanted after it
			for _, l := range tr.Layers {
				if l.Layer > prev+1 {
					jumps++
					var residual []graph.VertexID
					ms := 0
					for v, p := range a.Parts {
						if p >= k-nr {
							residual = append(residual, graph.VertexID(v))
							ms += g.OutDegree(graph.VertexID(v))
						}
					}
					for skipped := prev + 1; skipped < l.Layer; skipped++ {
						pieces := b.layerPieces(skipped, nr, len(residual))
						res, err := b.streamLayer(partition.NewStreamState(g), g.In(), residual, ms, pieces, telemetry.Nop())
						if err != nil {
							t.Fatal(err)
						}
						if got := pairedFreeze(b, res.VertexCount, res.EdgeCount, nr, tv, te); got > 0 {
							t.Errorf("%s: skipped layer %d of %d pieces for %d parts: the paper's pairing freezes %d groups", cell, skipped, pieces, nr, got)
						}
						if pieces > maxJumpPieces {
							unchecked++
							continue
						}
						best := oracle.MaxFreeze(res.VertexCount, res.EdgeCount, tv, te, b.cfg.Epsilon)
						if _, listed := jumpDepartures[cell]; best > 0 && !listed {
							t.Errorf("%s: skipped layer %d of %d pieces for %d parts: the exact combine freezes %d groups", cell, skipped, pieces, nr, best)
						}
						departed[cell] = departed[cell] || best > 0
						checked++
					}
				}
				prev, nr = l.Layer, l.RemainingNr
			}
		}
	}
	if jumps == 0 {
		t.Fatal("no cell jumped, so nothing was checked")
	}
	for cell := range jumpDepartures {
		if !departed[cell] {
			t.Errorf("%s is a listed departure, but no combine of its skipped layers freezes a group", cell)
		}
	}
	t.Logf("%d jumps; %d skipped layers checked, %d of more than %d pieces not checked", jumps, checked, unchecked, maxJumpPieces)
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

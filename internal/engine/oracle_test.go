package engine

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/oracle"
)

// TestOracleTraversals checks CC, BFS, direction-optimizing BFS and SSSP
// against the textbook sequential references of internal/oracle, which
// share no code with the kernel: a skewed ChungLu graph, an R-MAT graph, a
// sparse Erdős–Rényi graph of many small components and a ring (the
// longest frontier chain per vertex), each at one, two and NumCPU workers.
func TestOracleTraversals(t *testing.T) {
	chungLu, err := gen.ChungLu(gen.Config{NumVertices: 3000, AvgDegree: 10, Skew: 0.75, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rmat, err := gen.RMAT(gen.RMATConfig{Scale: 12, EdgeFactor: 8, A: 0.57, B: 0.19, C: 0.19, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	er, err := gen.ErdosRenyi(3000, 0.9, 6)
	if err != nil {
		t.Fatal(err)
	}
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"ChungLu", chungLu},
		{"RMAT", rmat},
		{"ER-fragmented", er},
		{"Ring", gen.Ring(700)},
	}
	widths := []int{1, 2}
	if n := runtime.NumCPU(); !slices.Contains(widths, n) {
		widths = append(widths, n)
	}
	for _, tg := range graphs {
		g := tg.g
		n := g.NumVertices()
		labels, components := oracle.Components(g)
		if tg.name == "ER-fragmented" && components < n/20 {
			t.Fatalf("%s: %d components, want a fragmented graph", tg.name, components)
		}
		sources := []graph.VertexID{0, graph.VertexID(n / 2)}
		for _, w := range widths {
			e := newEngine(t, g, 4)
			e.Cluster().SetWorkers(w)
			cc, err := e.ConnectedComponents(0)
			if err != nil {
				t.Fatal(err)
			}
			if cc.Components != components || !reflect.DeepEqual(cc.Labels, labels) {
				t.Errorf("%s w=%d: CC differs from the oracle (%d components, oracle %d)",
					tg.name, w, cc.Components, components)
			}
			for _, src := range sources {
				hops := oracle.BFS(g, src)
				bfs, err := e.BFS(src)
				if err != nil {
					t.Fatal(err)
				}
				dobfs, err := e.BFSDirectionOptimizing(src)
				if err != nil {
					t.Fatal(err)
				}
				sssp, err := e.SSSP(src)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(bfs.Dist, hops) {
					t.Errorf("%s w=%d src=%d: BFS differs from the oracle", tg.name, w, src)
				}
				if !reflect.DeepEqual(dobfs.Dist, hops) {
					t.Errorf("%s w=%d src=%d: direction-optimizing BFS differs from the oracle", tg.name, w, src)
				}
				if !reflect.DeepEqual(sssp.Dist, oracle.SSSP(g, src, EdgeWeight)) {
					t.Errorf("%s w=%d src=%d: SSSP differs from the oracle", tg.name, w, src)
				}
			}
		}
	}
}

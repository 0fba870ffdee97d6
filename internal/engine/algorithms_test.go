package engine

import (
	"testing"

	"bpart/internal/cluster"
	"bpart/internal/gen"
	"bpart/internal/graph"
)

func TestEdgeWeightDeterministicBounded(t *testing.T) {
	for u := graph.VertexID(0); u < 50; u++ {
		for v := graph.VertexID(0); v < 50; v++ {
			w := EdgeWeight(u, v)
			if w < 1 || w > 8 {
				t.Fatalf("weight(%d,%d) = %d out of [1,8]", u, v, w)
			}
			if w != EdgeWeight(u, v) {
				t.Fatalf("weight(%d,%d) not deterministic", u, v)
			}
		}
	}
}

func TestSSSPLine(t *testing.T) {
	// 0 -> 1 -> 2 -> 3: distances are the sums of the arc weights.
	g := graph.FromAdjacency([][]graph.VertexID{{1}, {2}, {3}, {}})
	e, err := New(g, []int{0, 0, 1, 1}, 2, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.SSSP(0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{
		0,
		EdgeWeight(0, 1),
		EdgeWeight(0, 1) + EdgeWeight(1, 2),
		EdgeWeight(0, 1) + EdgeWeight(1, 2) + EdgeWeight(2, 3),
	}
	for v := range want {
		if res.Dist[v] != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, res.Dist[v], want[v])
		}
	}
	if res.Reached != 4 {
		t.Fatalf("reached %d", res.Reached)
	}
}

func TestSSSPPrefersCheaperLongerPath(t *testing.T) {
	// Diamond where the two-hop path may beat the direct arc depending on
	// weights; verify against a sequential Bellman-Ford.
	g, err := gen.ChungLu(gen.Config{NumVertices: 300, AvgDegree: 6, Skew: 0.7, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, g, 4)
	res, err := e.SSSP(0)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential reference.
	const unreached = int64(-1)
	ref := make([]int64, g.NumVertices())
	for i := range ref {
		ref[i] = unreached
	}
	ref[0] = 0
	for changed := true; changed; {
		changed = false
		for v := 0; v < g.NumVertices(); v++ {
			if ref[v] == unreached {
				continue
			}
			for _, u := range g.Neighbors(graph.VertexID(v)) {
				cand := ref[v] + EdgeWeight(graph.VertexID(v), u)
				if ref[u] == unreached || cand < ref[u] {
					ref[u] = cand
					changed = true
				}
			}
		}
	}
	for v := range ref {
		if res.Dist[v] != ref[v] {
			t.Fatalf("dist[%d] = %d, reference %d", v, res.Dist[v], ref[v])
		}
	}
}

func TestSSSPUnreachableAndBadSource(t *testing.T) {
	g := graph.FromAdjacency([][]graph.VertexID{{1}, {}, {}})
	e, err := New(g, []int{0, 1, 1}, 2, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.SSSP(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist[2] != -1 || res.Reached != 2 {
		t.Fatalf("unexpected reach: %+v", res)
	}
	if _, err := e.SSSP(99); err == nil {
		t.Fatal("bad source accepted")
	}
}

func TestKCoreRing(t *testing.T) {
	// Directed ring: undirected degree 2 everywhere. 2-core = everything,
	// 3-core = empty.
	g := gen.Ring(50)
	e := newEngine(t, g, 4)
	res2, err := e.KCore(2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.CoreSize != 50 {
		t.Fatalf("2-core size %d, want 50", res2.CoreSize)
	}
	res3, err := e.KCore(3)
	if err != nil {
		t.Fatal(err)
	}
	if res3.CoreSize != 0 {
		t.Fatalf("3-core size %d, want 0", res3.CoreSize)
	}
}

func TestKCorePeelsTail(t *testing.T) {
	// A triangle (0,1,2 fully connected both ways) with a pendant chain
	// 2->3->4. The 4-core is empty; the 2-core... each triangle vertex has
	// undirected degree ≥ 4 within the triangle; pendant vertices die.
	g := graph.FromAdjacency([][]graph.VertexID{
		{1, 2}, {0, 2}, {0, 1, 3}, {4}, {},
	})
	e, err := New(g, []int{0, 0, 0, 1, 1}, 2, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.KCore(3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.InCore[0] || !res.InCore[1] || !res.InCore[2] {
		t.Fatalf("triangle not in 3-core: %v", res.InCore)
	}
	if res.InCore[3] || res.InCore[4] {
		t.Fatalf("pendant chain in 3-core: %v", res.InCore)
	}
	if res.CoreSize != 3 {
		t.Fatalf("core size %d", res.CoreSize)
	}
	if _, err := e.KCore(0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestKCoreCascade(t *testing.T) {
	// A path a-b-c-d (undirected): 2-core is empty but peeling must
	// cascade from the endpoints inwards across multiple rounds.
	g := graph.FromAdjacency([][]graph.VertexID{{1}, {2}, {3}, {}})
	e, err := New(g, []int{0, 0, 1, 1}, 2, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.KCore(2)
	if err != nil {
		t.Fatal(err)
	}
	if res.CoreSize != 0 {
		t.Fatalf("path 2-core size %d, want 0", res.CoreSize)
	}
	if len(res.Stats.Iterations) < 2 {
		t.Fatalf("peeling converged in %d rounds, expected a cascade", len(res.Stats.Iterations))
	}
}

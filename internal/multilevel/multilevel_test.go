package multilevel

import (
	"testing"
	"testing/quick"

	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/metrics"
	"bpart/internal/partition"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.ChungLu(gen.Config{
		NumVertices: 10000, AvgDegree: 16, Skew: 0.75, Locality: 0.5, Window: 256, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestArgs(t *testing.T) {
	m := New()
	if _, err := m.Partition(nil, 2); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := m.Partition(gen.Ring(4), 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestVertexBalancedEdgeSkewed(t *testing.T) {
	g := testGraph(t)
	m := New()
	a, err := m.Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}
	r := metrics.NewReport(g, a.Parts, 8, false)
	// The §4.2 asymmetry: vertex bias small (paper: 0.03), edge bias
	// substantial (paper: 0.70–2.59).
	if r.VertexBias > 0.05 {
		t.Fatalf("vertex bias %v, want ≤ imbalance+rounding", r.VertexBias)
	}
	if r.EdgeBias < 0.3 {
		t.Fatalf("edge bias %v, want the Mt-KaHIP-style skew (> 0.3)", r.EdgeBias)
	}
}

func TestCutBetterThanHash(t *testing.T) {
	g := testGraph(t)
	m := New()
	a, err := m.Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	h, _ := partition.Hash{}.Partition(g, 8)
	if cm, ch := metrics.EdgeCutRatio(g, a.Parts), metrics.EdgeCutRatio(g, h.Parts); cm >= ch {
		t.Fatalf("multilevel cut %v not below hash %v", cm, ch)
	}
}

func TestSmallGraphs(t *testing.T) {
	m := New()
	for _, n := range []int{1, 2, 5, 17} {
		g := gen.Ring(n)
		a, err := m.Partition(g, 4)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if err := a.Validate(g); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
	empty := graph.FromAdjacency(nil)
	a, err := m.Partition(empty, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Parts) != 0 {
		t.Fatalf("empty graph parts: %v", a.Parts)
	}
}

func TestLPT(t *testing.T) {
	parts := lptAssign([]int{10, 9, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 2)
	load := []int{0, 0}
	for i, p := range parts {
		load[p] += []int{10, 9, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}[i]
	}
	if load[0] != 14 && load[0] != 15 {
		t.Fatalf("LPT loads %v, want ~even", load)
	}
}

func TestLabelPropagationRespectsCap(t *testing.T) {
	g := testGraph(t)
	w := ones(g.NumVertices())
	cap := 50
	labels := labelPropagation(g, w, cap, 3)
	sizes := map[int]int{}
	for _, l := range labels {
		sizes[l]++
	}
	for l, s := range sizes {
		if s > cap {
			t.Fatalf("cluster %d has %d vertices, cap %d", l, s, cap)
		}
	}
	if len(sizes) >= g.NumVertices() {
		t.Fatal("label propagation did not cluster anything")
	}
}

func TestContract(t *testing.T) {
	// Two triangles joined by one arc; cluster each triangle.
	g := graph.FromAdjacency([][]graph.VertexID{
		{1}, {2}, {0, 3}, {4}, {5}, {3},
	})
	labels := []int{0, 0, 0, 9, 9, 9}
	lv, clusters, reduced := contract(g, ones(6), labels)
	if !reduced {
		t.Fatal("contract reported no reduction")
	}
	if lv.g.NumVertices() != 2 {
		t.Fatalf("coarse |V| = %d", lv.g.NumVertices())
	}
	if lv.g.NumEdges() != 1 {
		t.Fatalf("coarse |E| = %d, want only the bridge", lv.g.NumEdges())
	}
	if lv.weight[0] != 3 || lv.weight[1] != 3 {
		t.Fatalf("weights %v", lv.weight)
	}
	if clusters[0] != clusters[1] || clusters[0] == clusters[3] {
		t.Fatalf("cluster map wrong: %v", clusters)
	}
	// Degenerate: all distinct labels → no reduction.
	if _, _, red := contract(g, ones(6), []int{0, 1, 2, 3, 4, 5}); red {
		t.Fatal("identity contraction reported reduction")
	}
}

func TestDeterministic(t *testing.T) {
	g := testGraph(t)
	m := New()
	a1, err := m.Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := m.Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a1.Parts {
		if a1.Parts[v] != a2.Parts[v] {
			t.Fatalf("multilevel not deterministic at vertex %d", v)
		}
	}
}

func TestRegistryHasMultilevel(t *testing.T) {
	p, err := partition.Get("Multilevel")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "Multilevel" {
		t.Fatalf("Name = %q", p.Name())
	}
}

// Property: valid assignments for arbitrary graphs and k.
func TestQuickValid(t *testing.T) {
	f := func(seed uint64, rawK uint8) bool {
		n := int(seed%300) + 2
		k := int(rawK)%6 + 1
		g, err := gen.ChungLu(gen.Config{NumVertices: n, AvgDegree: 5, Skew: 0.7, Seed: seed})
		if err != nil {
			return false
		}
		m := New()
		a, err := m.Partition(g, k)
		if err != nil {
			return false
		}
		return a.Validate(g) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMultilevel10k(b *testing.B) {
	g := testGraph(b)
	m := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Partition(g, 8); err != nil {
			b.Fatal(err)
		}
	}
}

package core

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/metrics"
)

// skewedAssignment puts the first frac of vertices in part 0 and spreads
// the rest round-robin over the remaining parts.
func skewedAssignment(n, k int, frac float64) []int {
	parts := make([]int, n)
	cut := int(float64(n) * frac)
	for v := 0; v < n; v++ {
		if v < cut {
			parts[v] = 0
		} else {
			parts[v] = 1 + v%(k-1)
		}
	}
	return parts
}

// deficitAssignment spreads vertices round-robin, then hands two in five of
// the first k/8 parts' vertices to the other parts: those parts start near
// 0.6 of the mean and the rest near 1.06, so refine's pull phase does the
// work.
func deficitAssignment(n, k int) []int {
	parts := make([]int, n)
	short := max(k/8, 1)
	for v := range parts {
		p := v % k
		if r := v / k; p < short && r%5 < 2 {
			p = short + r%(k-short)
		}
		parts[v] = p
	}
	return parts
}

func TestRebalanceFixesVertexOverage(t *testing.T) {
	g := gen.Ring(1000)
	// Part 0 holds 40% of all vertices.
	parts := skewedAssignment(1000, 4, 0.4)
	rebalance(g, parts, 4, 0.05)
	vs, es := graph.PartSizes(g, parts, 4)
	if b := metrics.Bias(vs); b > 0.06 {
		t.Fatalf("vertex bias %v after rebalance, want ≤ ~ε", b)
	}
	if b := metrics.Bias(es); b > 0.06 {
		t.Fatalf("edge bias %v after rebalance (ring: E tracks V)", b)
	}
}

func TestRebalanceFixesEdgeOverage(t *testing.T) {
	// Scale-free graph, vertex-balanced but edge-skewed split (Chunk-V
	// style): part 0 gets the hubs.
	g, err := gen.ChungLu(gen.Config{NumVertices: 4000, AvgDegree: 10, Skew: 0.8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]int, 4000)
	for v := range parts {
		parts[v] = v * 4 / 4000
	}
	before := metrics.NewReport(g, parts, 4, false)
	if before.EdgeBias < 0.5 {
		t.Fatalf("precondition: edge bias %v not skewed", before.EdgeBias)
	}
	rebalance(g, parts, 4, 0.1)
	after := metrics.NewReport(g, parts, 4, false)
	if after.EdgeBias > 0.12 {
		t.Fatalf("edge bias %v after rebalance, want ≤ ~ε", after.EdgeBias)
	}
	if after.VertexBias > 0.12 {
		t.Fatalf("vertex bias %v after rebalance", after.VertexBias)
	}
}

func TestRebalanceNoopWhenBalanced(t *testing.T) {
	g := gen.Ring(100)
	parts := make([]int, 100)
	for v := range parts {
		parts[v] = v % 4
	}
	orig := append([]int(nil), parts...)
	rebalance(g, parts, 4, 0.1)
	for v := range parts {
		if parts[v] != orig[v] {
			t.Fatalf("balanced assignment modified at vertex %d", v)
		}
	}
}

func TestRebalanceDegenerate(t *testing.T) {
	// k=1 and empty graphs must be no-ops, not panics.
	g := gen.Ring(10)
	parts := make([]int, 10)
	rebalance(g, parts, 1, 0.1)
	empty := graph.FromAdjacency(nil)
	rebalance(empty, nil, 3, 0.1)
}

func TestRebalanceNeverEmptiesAPart(t *testing.T) {
	g := gen.Ring(20)
	// Part 3 holds a single vertex; heavily unbalanced elsewhere.
	parts := make([]int, 20)
	for v := 0; v < 19; v++ {
		parts[v] = v % 3
	}
	parts[19] = 3
	rebalance(g, parts, 4, 0.01)
	count := 0
	for _, p := range parts {
		if p == 3 {
			count++
		}
	}
	if count == 0 {
		t.Fatal("rebalance emptied part 3")
	}
}

// Property: rebalance preserves totals, keeps parts in range, and never
// increases the worst normalized overage.
func TestQuickRebalanceInvariants(t *testing.T) {
	f := func(seed uint64, rawK uint8) bool {
		n := int(seed%300) + 20
		k := int(rawK)%6 + 2
		g, err := gen.ChungLu(gen.Config{NumVertices: n, AvgDegree: 6, Skew: 0.75, Seed: seed})
		if err != nil {
			return false
		}
		parts := make([]int, n)
		for v := range parts {
			parts[v] = int((seed + uint64(v)*2654435761) % uint64(k))
		}
		vsB, esB := graph.PartSizes(g, parts, k)
		worstBefore := metrics.Bias(vsB)
		if eb := metrics.Bias(esB); eb > worstBefore {
			worstBefore = eb
		}
		rebalance(g, parts, k, 0.1)
		for _, p := range parts {
			if p < 0 || p >= k {
				return false
			}
		}
		vs, es := graph.PartSizes(g, parts, k)
		tv, te := 0, 0
		for i := 0; i < k; i++ {
			tv += vs[i]
			te += es[i]
		}
		if tv != n || te != g.NumEdges() {
			return false
		}
		worstAfter := metrics.Bias(vs)
		if eb := metrics.Bias(es); eb > worstAfter {
			worstAfter = eb
		}
		return worstAfter <= worstBefore+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// One rebalance allocates the same number of times however many moves it
// makes: the member lists share one backing array with room to the vertex
// cap, and every move reuses one peer-order buffer.
func TestRebalanceAllocsIndependentOfMoves(t *testing.T) {
	g := twitterish(t)
	n, k := g.NumVertices(), 16
	parts := make([]int, n)
	var moves, allocs []float64
	for _, start := range [][]int{deficitAssignment(n, k), skewedAssignment(n, k, 0.3)} {
		var m refineMoves
		allocs = append(allocs, testing.AllocsPerRun(3, func() {
			copy(parts, start)
			m = rebalance(g, parts, k, 0.1)
		}))
		moves = append(moves, float64(m.Shed+m.Pulled))
	}
	if moves[1] < 5*moves[0] {
		t.Fatalf("moves %v: the starts do not span a wide range", moves)
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("%v allocations for %v moves, want one count", allocs, moves)
	}
}

// DisableRefine alone, every numeric knob left at zero, must survive
// Normalize's all-defaults shortcut and switch the pass off: on twitterish at
// k=8 the pass moves vertices, so the two assignments differ.
func TestDisableRefineKeptByDefaults(t *testing.T) {
	off, err := New(Config{DisableRefine: true})
	if err != nil {
		t.Fatal(err)
	}
	if cfg := off.Config(); !cfg.DisableRefine || cfg.C != 0.5 || cfg.Epsilon != 0.1 || cfg.SplitFactor != 2 {
		t.Fatalf("Config{DisableRefine: true} normalized to %+v", cfg)
	}
	g := twitterish(t)
	unrefined, err := off.Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	refined, err := defaultBPart(t).Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(unrefined.Parts, refined.Parts) {
		t.Fatal("DisableRefine run placed every vertex as the refined default run")
	}
}

// BenchmarkRebalance times the refine pass alone on what combining hands it:
// at k=8 it pulls a few hundred low-degree vertices into deficient parts, at
// k=128 nearly every part is already within (1±ε) and the pass should cost
// little more than counting.
func BenchmarkRebalance(b *testing.B) {
	g := twitterish(b)
	unrefined, err := New(Config{C: 0.5, DisableRefine: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{8, 128} {
		a, err := unrefined.Partition(g, k)
		if err != nil {
			b.Fatal(err)
		}
		parts := make([]int, len(a.Parts))
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var moves refineMoves
			for i := 0; i < b.N; i++ {
				copy(parts, a.Parts)
				moves = rebalance(g, parts, k, 0.1)
			}
			b.ReportMetric(float64(moves.Shed+moves.Pulled), "moves")
		})
	}
}

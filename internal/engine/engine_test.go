package engine

import (
	"math"
	"testing"

	"bpart/internal/cluster"
	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/partition"
)

func chunkAssign(g *graph.Graph, k int) []int {
	a, err := (partition.ChunkV{}).Partition(g, k)
	if err != nil {
		panic(err)
	}
	return a.Parts
}

func newEngine(t testing.TB, g *graph.Graph, k int) *Engine {
	t.Helper()
	e, err := New(g, chunkAssign(g, k), k, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	g := gen.Ring(4)
	if _, err := New(nil, nil, 2, cluster.DefaultCostModel()); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := New(g, []int{0}, 2, cluster.DefaultCostModel()); err == nil {
		t.Fatal("short assignment accepted")
	}
	if _, err := New(g, []int{0, 0, 0, 9}, 2, cluster.DefaultCostModel()); err == nil {
		t.Fatal("out-of-range machine accepted")
	}
	if err := newEngine(t, g, 2).SetTranspose(nil); err == nil {
		t.Fatal("nil transpose accepted")
	}
	if err := newEngine(t, g, 2).SetTranspose(gen.Ring(5)); err == nil {
		t.Fatal("transpose of another shape accepted")
	}
}

func TestPageRankArgs(t *testing.T) {
	e := newEngine(t, gen.Ring(4), 2)
	if _, err := e.PageRank(0, 0.85); err == nil {
		t.Fatal("iters=0 accepted")
	}
	if _, err := e.PageRank(5, 1.0); err == nil {
		t.Fatal("damping=1 accepted")
	}
	if _, err := e.PageRank(5, -0.1); err == nil {
		t.Fatal("negative damping accepted")
	}
}

func TestPageRankRing(t *testing.T) {
	// On a directed ring all ranks stay exactly 1/n by symmetry.
	n := 20
	e := newEngine(t, gen.Ring(n), 4)
	res, err := e.PageRank(10, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range res.Ranks {
		if math.Abs(r-1.0/float64(n)) > 1e-9 {
			t.Fatalf("rank[%d] = %v, want 1/%d", v, r, n)
		}
	}
	if len(res.Stats.Iterations) != 10 {
		t.Fatalf("ran %d iterations", len(res.Stats.Iterations))
	}
}

func TestPageRankMassConservedAndHubFavored(t *testing.T) {
	g, err := gen.ChungLu(gen.Config{NumVertices: 3000, AvgDegree: 10, Skew: 0.8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, g, 4)
	res, err := e.PageRank(20, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range res.Ranks {
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("total rank %v, want 1 (dangling handled)", sum)
	}
	// Vertex 0 is the biggest hub by construction (everyone links to it);
	// its rank must far exceed the mean.
	if res.Ranks[0] < 5.0/3000 {
		t.Fatalf("hub rank %v not above mean", res.Ranks[0])
	}
}

func TestPageRankPartitionIndependent(t *testing.T) {
	// Ranks must not depend on the placement — only timing does.
	g, err := gen.ChungLu(gen.Config{NumVertices: 1000, AvgDegree: 8, Skew: 0.7, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	e1 := newEngine(t, g, 2)
	hashAssign, _ := (partition.Hash{}).Partition(g, 5)
	e2, err := New(g, hashAssign.Parts, 5, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := e1.PageRank(8, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.PageRank(8, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	for v := range r1.Ranks {
		if math.Abs(r1.Ranks[v]-r2.Ranks[v]) > 1e-9 {
			t.Fatalf("rank[%d] differs across placements: %v vs %v", v, r1.Ranks[v], r2.Ranks[v])
		}
	}
}

func TestPageRankDangling(t *testing.T) {
	// 0 -> 1, 1 is a sink. Mass must be conserved.
	g := graph.FromAdjacency([][]graph.VertexID{{1}, {}})
	e, err := New(g, []int{0, 1}, 2, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.PageRank(30, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Ranks[0] + res.Ranks[1]
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("total rank %v, want 1", sum)
	}
	if res.Ranks[1] <= res.Ranks[0] {
		t.Fatalf("sink rank %v not above source %v", res.Ranks[1], res.Ranks[0])
	}
}

func TestConnectedComponentsTwoIslands(t *testing.T) {
	// Island A: 0-1-2 path; island B: 3-4.
	g := graph.FromAdjacency([][]graph.VertexID{{1}, {2}, {}, {4}, {}})
	e, err := New(g, []int{0, 0, 1, 1, 1}, 2, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.ConnectedComponents(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Components != 2 {
		t.Fatalf("components = %d, want 2", res.Components)
	}
	if res.Labels[0] != res.Labels[1] || res.Labels[1] != res.Labels[2] {
		t.Fatalf("island A labels differ: %v", res.Labels)
	}
	if res.Labels[3] != res.Labels[4] || res.Labels[0] == res.Labels[3] {
		t.Fatalf("island separation broken: %v", res.Labels)
	}
}

func TestConnectedComponentsWeakDirection(t *testing.T) {
	// 1 -> 0 only: still one weak component.
	g := graph.FromAdjacency([][]graph.VertexID{{}, {0}})
	e, err := New(g, []int{0, 1}, 2, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.ConnectedComponents(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Components != 1 {
		t.Fatalf("components = %d, want 1 (weak connectivity)", res.Components)
	}
}

func TestConnectedComponentsRing(t *testing.T) {
	e := newEngine(t, gen.Ring(100), 4)
	res, err := e.ConnectedComponents(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Components != 1 {
		t.Fatalf("ring components = %d", res.Components)
	}
	for _, l := range res.Labels {
		if l != 0 {
			t.Fatalf("ring label %d, want 0", l)
		}
	}
}

func TestConnectedComponentsMaxIters(t *testing.T) {
	e := newEngine(t, gen.Ring(100), 4)
	res, err := e.ConnectedComponents(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Iterations) != 3 {
		t.Fatalf("ran %d iterations, want capped at 3", len(res.Stats.Iterations))
	}
	// Not converged: after 3 supersteps a ring vertex carries the minimum
	// ID within 3 hops, so 0..3 and 97..99 share label 0 and every other v
	// is labelled v-3. Components counts the distinct labels as they stand.
	distinct := map[uint32]bool{}
	for _, l := range res.Labels {
		distinct[l] = true
	}
	if res.Components != len(distinct) || res.Components != 94 {
		t.Fatalf("Components = %d with %d distinct labels, want 94", res.Components, len(distinct))
	}
}

func TestBFSRing(t *testing.T) {
	n := 50
	e := newEngine(t, gen.Ring(n), 4)
	res, err := e.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached != n {
		t.Fatalf("reached %d of %d", res.Reached, n)
	}
	for v, d := range res.Dist {
		if int(d) != v {
			t.Fatalf("dist[%d] = %d, want %d on a directed ring", v, d, v)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	// 0 -> 1, 2 isolated.
	g := graph.FromAdjacency([][]graph.VertexID{{1}, {}, {}})
	e, err := New(g, []int{0, 0, 1}, 2, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached != 2 || res.Dist[2] != -1 {
		t.Fatalf("reach set wrong: %+v", res)
	}
	if _, err := e.BFS(99); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

func TestMessagesTrackCutEdges(t *testing.T) {
	// Ring split into 2 halves: exactly 2 cut arcs, so PageRank must send
	// exactly 2 messages per iteration.
	g := gen.Ring(10)
	e, err := New(g, []int{0, 0, 0, 0, 0, 1, 1, 1, 1, 1}, 2, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.PageRank(3, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range res.Stats.Iterations {
		var msgs int64
		for _, m := range it.Work.Messages {
			msgs += m
		}
		if msgs != 2 {
			t.Fatalf("iteration %d sent %d messages, want 2", i, msgs)
		}
	}
}

func TestLoadImbalanceCreatesWaiting(t *testing.T) {
	// Skewed graph + Chunk-V: machine owning the hubs does more edge work,
	// so other machines must wait (the paper's Fig 12/13 effect).
	g, err := gen.ChungLu(gen.Config{NumVertices: 5000, AvgDegree: 12, Skew: 0.8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, g, 4)
	res, err := e.PageRank(5, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if r := res.Stats.WaitRatio(); r < 0.1 {
		t.Fatalf("wait ratio %v under Chunk-V on a skewed graph, want substantial", r)
	}
}

func BenchmarkPageRank(b *testing.B) {
	g, err := gen.ChungLu(gen.Config{NumVertices: 20000, AvgDegree: 16, Skew: 0.75, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	e, err := New(g, chunkAssign(g, 8), 8, cluster.DefaultCostModel())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.PageRank(5, 0.85); err != nil {
			b.Fatal(err)
		}
	}
}

// benchMatrix times run on a BPart placement with comm-matrix capture off
// and on, so the price of capture (per-arc accounting instead of cached cut
// degrees) is a number. The lazy transpose and cut degrees are built by a
// warm-up run outside the timer.
func benchMatrix(b *testing.B, run func(e *Engine) error) {
	g, err := gen.ChungLu(gen.Config{NumVertices: 20000, AvgDegree: 16, Skew: 0.75, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name   string
		matrix bool
	}{{"matrix=off", false}, {"matrix=on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			e := schemeEngine(b, g, "BPart", 8)
			e.Cluster().SetCommMatrix(mode.matrix)
			if err := run(e); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := run(e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCC(b *testing.B) {
	benchMatrix(b, func(e *Engine) error {
		_, err := e.ConnectedComponents(0)
		return err
	})
}

func BenchmarkSSSP(b *testing.B) {
	benchMatrix(b, func(e *Engine) error {
		_, err := e.SSSP(0)
		return err
	})
}

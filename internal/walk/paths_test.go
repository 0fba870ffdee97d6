package walk

import (
	"slices"
	"testing"

	"bpart/internal/cluster"
	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/partition"
)

func TestCollectPathsCountAndValidity(t *testing.T) {
	g, err := gen.ChungLu(gen.Config{NumVertices: 800, AvgDegree: 8, Skew: 0.7, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, g, 4)
	const wpv, steps = 2, 5
	res, err := e.Run(Config{
		Kind: DeepWalk, WalkersPerVertex: wpv, Steps: steps, Seed: 3, CollectPaths: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != 800*wpv {
		t.Fatalf("collected %d paths, want %d", len(res.Paths), 800*wpv)
	}
	starts := make(map[graph.VertexID]int)
	for _, p := range res.Paths {
		if len(p) == 0 || len(p) > steps+1 {
			t.Fatalf("path length %d out of [1,%d]", len(p), steps+1)
		}
		starts[p[0]]++
		for i := 1; i < len(p); i++ {
			if !g.HasEdge(p[i-1], p[i]) {
				t.Fatalf("path hop %d→%d is not an edge", p[i-1], p[i])
			}
		}
	}
	for v := graph.VertexID(0); v < 800; v++ {
		if starts[v] != wpv {
			t.Fatalf("vertex %d started %d walks, want %d", v, starts[v], wpv)
		}
	}
	// Total steps must equal total hops plus termination events; at
	// minimum every hop is a step.
	var hops int64
	for _, p := range res.Paths {
		hops += int64(len(p) - 1)
	}
	if hops > res.TotalSteps {
		t.Fatalf("hops %d exceed steps %d", hops, res.TotalSteps)
	}
}

func TestCollectPathsCrossMachine(t *testing.T) {
	// Deterministic 2-cycle across machines: paths must follow walkers
	// through migrations intact.
	g := graph.FromAdjacency([][]graph.VertexID{{1}, {0}})
	e, err := New(g, []int{0, 1}, 2, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(Config{Kind: Simple, WalkersPerVertex: 1, Steps: 3, Seed: 1, CollectPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != 2 {
		t.Fatalf("paths = %d", len(res.Paths))
	}
	for _, p := range res.Paths {
		want := []graph.VertexID{p[0], 1 - p[0], p[0], 1 - p[0]}
		if len(p) != 4 {
			t.Fatalf("path %v, want length 4", p)
		}
		for i := range want {
			if p[i] != want[i] {
				t.Fatalf("path %v, want %v", p, want)
			}
		}
	}
}

func TestCollectPathsOffByDefault(t *testing.T) {
	g := gen.Ring(10)
	a, _ := (partition.ChunkV{}).Partition(g, 2)
	e, err := New(g, a.Parts, 2, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(Config{Kind: Simple, WalkersPerVertex: 1, Steps: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Paths != nil {
		t.Fatalf("paths collected without CollectPaths: %d", len(res.Paths))
	}
}

func TestCollectPathsEarlyTermination(t *testing.T) {
	// Sink graph: paths end where the walk dies.
	g := graph.FromAdjacency([][]graph.VertexID{{1}, {}})
	e, err := New(g, []int{0, 1}, 2, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(Config{Kind: Simple, WalkersPerVertex: 1, Steps: 5, Seed: 1, CollectPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Paths) != 2 {
		t.Fatalf("paths = %d", len(res.Paths))
	}
	for _, p := range res.Paths {
		switch p[0] {
		case 0:
			if len(p) != 2 || p[1] != 1 {
				t.Fatalf("path from 0: %v", p)
			}
		case 1:
			if len(p) != 1 {
				t.Fatalf("path from sink: %v", p)
			}
		}
	}
}

// TestPathAppendCopies: the returned paths share one arena, and each is
// capped at its length, so appending to one copies it instead of writing
// into the next walker's cells.
func TestPathAppendCopies(t *testing.T) {
	g, err := gen.ChungLu(gen.Config{NumVertices: 200, AvgDegree: 6, Skew: 0.5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// DeepWalk paths fill their whole arena slot, so an uncapped path's
	// spare capacity would be its neighbour's first cell.
	res, err := newEngine(t, g, 4).Run(Config{Kind: DeepWalk, WalkersPerVertex: 2, Steps: 6, Seed: 8, CollectPaths: true})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]graph.VertexID, len(res.Paths))
	for i, p := range res.Paths {
		want[i] = slices.Clone(p)
	}
	for i, p := range res.Paths {
		grown := append(p, graph.VertexID(g.NumVertices()))
		if &grown[0] == &p[0] {
			t.Fatalf("path %d: append wrote in place", i)
		}
	}
	for i, p := range res.Paths {
		if !slices.Equal(p, want[i]) {
			t.Fatalf("path %d changed after appending to the others: %v, want %v", i, p, want[i])
		}
	}
}

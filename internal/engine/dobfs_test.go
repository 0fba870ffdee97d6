package engine

import (
	"testing"

	"bpart/internal/gen"
	"bpart/internal/graph"
)

// TestDirectionOptimizingMatchesPlainBFS runs both searches on a skewed
// graph and on a flat, local one whose third level takes the bottom-up
// direction while still too small for the frontier bitmap
// (|V|/dirBeta < |F| <= |V|/denseRatio): the pull scan must test
// membership through a bitmap it builds itself.
func TestDirectionOptimizingMatchesPlainBFS(t *testing.T) {
	for _, tc := range []struct {
		cfg        gen.Config
		sparsePull bool
	}{
		{gen.Config{NumVertices: 5000, AvgDegree: 12, Skew: 0.75, Locality: 0.4, Window: 128, Seed: 3}, false},
		{gen.Config{NumVertices: 2400, AvgDegree: 30, Skew: 0.1, Locality: 0.95, Window: 24, Seed: 3}, true},
	} {
		g, err := gen.ChungLu(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		e := newEngine(t, g, 4)
		plain, err := e.BFS(0)
		if err != nil {
			t.Fatal(err)
		}
		if tc.sparsePull && !hasSparsePullLevel(g, plain.Dist) {
			t.Fatalf("n=%d: no bottom-up level with a sparse frontier", tc.cfg.NumVertices)
		}
		opt, err := e.BFSDirectionOptimizing(0)
		if err != nil {
			t.Fatal(err)
		}
		if plain.Reached != opt.Reached {
			t.Fatalf("n=%d: reached %d vs %d", tc.cfg.NumVertices, plain.Reached, opt.Reached)
		}
		for v := range plain.Dist {
			if plain.Dist[v] != opt.Dist[v] {
				t.Fatalf("n=%d: dist[%d]: plain %d vs optimized %d", tc.cfg.NumVertices, v, plain.Dist[v], opt.Dist[v])
			}
		}
	}
}

// hasSparsePullLevel reports whether some BFS level, as a frontier, makes
// the kernel pull (the dirAlpha/dirBeta test on its size and out-edge
// volume) while holding too few members to be dense.
func hasSparsePullLevel(g *graph.Graph, dist []int32) bool {
	n, m := g.NumVertices(), g.NumEdges()
	var size []int
	var edges []int64
	for v, d := range dist {
		for int(d) >= len(size) {
			size, edges = append(size, 0), append(edges, 0)
		}
		if d >= 0 {
			size[d]++
			edges[d] += int64(g.OutDegree(graph.VertexID(v)))
		}
	}
	for d := range size {
		if edges[d] > int64(m/dirAlpha) && size[d] > n/dirBeta && size[d]*denseRatio <= n {
			return true
		}
	}
	return false
}

func TestDirectionOptimizingScansFewerEdges(t *testing.T) {
	// Small-world graph: the middle BFS levels touch nearly every edge
	// top-down; bottom-up early exit must cut the total edge work.
	g, err := gen.ChungLu(gen.Config{
		NumVertices: 20000, AvgDegree: 16, Skew: 0.75, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, g, 4)
	plain, err := e.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := e.BFSDirectionOptimizing(0)
	if err != nil {
		t.Fatal(err)
	}
	edgesOf := func(r *BFSResult) int64 {
		var total int64
		for _, it := range r.Stats.Iterations {
			for _, x := range it.Work.Edges {
				total += x
			}
		}
		return total
	}
	pe, oe := edgesOf(plain), edgesOf(opt)
	if oe >= pe {
		t.Fatalf("direction-optimizing scanned %d edges, plain %d — no savings", oe, pe)
	}
}

func TestDirectionOptimizingBadSource(t *testing.T) {
	e := newEngine(t, gen.Ring(4), 2)
	if _, err := e.BFSDirectionOptimizing(99); err == nil {
		t.Fatal("bad source accepted")
	}
}

func TestDirectionOptimizingLineGraphStaysTopDown(t *testing.T) {
	// A ring frontier is always tiny: the heuristic must never switch,
	// and results must still be exact.
	g := gen.Ring(200)
	e := newEngine(t, g, 2)
	res, err := e.BFSDirectionOptimizing(0)
	if err != nil {
		t.Fatal(err)
	}
	for v, d := range res.Dist {
		if int(d) != v {
			t.Fatalf("ring dist[%d] = %d", v, d)
		}
	}
}

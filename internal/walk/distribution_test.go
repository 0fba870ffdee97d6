package walk

import (
	"math"
	"testing"

	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/oracle"
)

// undirectedTestGraph is a preferential-attachment graph stored as both
// arcs of every edge, checked connected and non-bipartite (an arc inside
// one BFS layer closes an odd cycle): the conditions under which a simple
// random walk forgets its start and settles at π(v) = deg(v)/2|E|. Every
// vertex has degree at least attach, so no walk dead-ends.
func undirectedTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.BarabasiAlbert(2000, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	dist := oracle.BFS(g, 0)
	oddCycle := false
	for u := range dist {
		if dist[u] < 0 {
			t.Fatalf("vertex %d unreachable: graph not connected", u)
		}
		for _, v := range g.Neighbors(graph.VertexID(u)) {
			oddCycle = oddCycle || dist[v] == dist[u]
			if !g.HasEdge(v, graph.VertexID(u)) {
				t.Fatalf("arc %d→%d has no reverse: graph not undirected", u, v)
			}
		}
	}
	if !oddCycle {
		t.Fatal("graph is bipartite")
	}
	return g
}

// TestSimpleWalkVisitsFollowDegree checks SimpleWalk's long-run visit
// frequency: after Steps steps from every vertex, a walker is at v with
// probability deg(v)/2|E|, whatever its start. Walkers draw independently,
// so the final positions are one multinomial and the statistic is a χ²
// with cells−1 degrees of freedom; the bound allows five of its standard
// deviations. The walk mixes at the rate of the second eigenvalue, far
// below the sampling noise after 40 steps.
func TestSimpleWalkVisitsFollowDegree(t *testing.T) {
	const W, steps = 20, 40
	g := undirectedTestGraph(t)
	res, err := newEngine(t, g, 4).Run(Config{Kind: Simple, WalkersPerVertex: W, Steps: steps, CollectPaths: true, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	obs, exp := make([]float64, n), make([]float64, n)
	for _, p := range res.Paths {
		if len(p) != steps+1 {
			t.Fatalf("path of %d vertices, want %d", len(p), steps+1)
		}
		obs[p[steps]]++
	}
	walkers := float64(W * n)
	for v := range exp {
		exp[v] = walkers * float64(g.OutDegree(graph.VertexID(v))) / float64(g.NumEdges())
	}
	stat, cells := chiSquare(t, "final positions", obs, exp)
	t.Logf("χ² = %.0f over %d cells", stat, cells)
	if bound := float64(cells-1) + 5*math.Sqrt(2*float64(cells-1)); stat > bound {
		t.Errorf("χ² = %.0f over %d cells, bound %.0f", stat, cells, bound)
	}
}

// TestPPRStopFrequency checks PPR's per-step termination: every step a
// walker takes is one Bernoulli(StopProb) trial, so over TotalSteps trials
// the walks that ended before the step cap stopped a binomial number of
// times (on a graph without dead ends, a stop is the only early end). A
// walk's length is a stopping time, but each walker's stops minus
// StopProb·its steps has variance 1−StopProb, the binomial's per-stop
// value, so the bound is five binomial standard deviations.
func TestPPRStopFrequency(t *testing.T) {
	const W = 10
	g := undirectedTestGraph(t)
	e := newEngine(t, g, 4)
	for _, stop := range []float64{0, 0.3} { // 0 selects the default, 0.1
		cfg := Config{Kind: PPR, WalkersPerVertex: W, StopProb: stop, CollectPaths: true, Seed: 29}
		res, err := e.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Normalize(); err != nil {
			t.Fatal(err)
		}
		stops := 0
		for _, p := range res.Paths {
			if len(p) <= cfg.Steps {
				stops++
			}
		}
		trials, p := float64(res.TotalSteps), cfg.StopProb
		sd := math.Sqrt(trials * p * (1 - p))
		t.Logf("StopProb %v: %d stops in %.0f steps", p, stops, trials)
		if d := float64(stops) - trials*p; math.Abs(d) > 5*sd {
			t.Errorf("StopProb %v: %d stops in %.0f steps (%.4f per step), %.1f standard deviations off",
				p, stops, trials, float64(stops)/trials, d/sd)
		}
	}
}

package walk

import (
	"math"
	"slices"
	"sync"
	"testing"

	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/xrand"
)

// refNode2VecStep is node2vec's rejection sampler written out literally:
// every trial draws x, weighs it (asking HasEdge unless x is prev), then
// draws r and accepts when r·maxW < w(x).
func refNode2VecStep(g *graph.Graph, prev graph.VertexID, ns []graph.VertexID, p, q float64, rng *xrand.RNG) graph.VertexID {
	maxW := 1.0
	if 1/p > maxW {
		maxW = 1 / p
	}
	if 1/q > maxW {
		maxW = 1 / q
	}
	for attempt := 0; attempt < 64; attempt++ {
		x := ns[rng.Intn(len(ns))]
		var w float64
		switch {
		case x == prev:
			w = 1 / p
		case g.HasEdge(prev, x):
			w = 1
		default:
			w = 1 / q
		}
		if rng.Float64()*maxW < w {
			return x
		}
	}
	return ns[rng.Intn(len(ns))]
}

// TestNode2VecPreAcceptanceMatchesReference checks that deciding a trial
// from r alone wherever the weights allow changes nothing: on every call,
// pick returns the literal sampler's vertex and leaves the RNG where the
// literal sampler leaves it, for every P, Q in the grid (P = Q = 1 makes
// maxW 1) and states whose prev is an in-neighbour of cur (a real walk),
// an out-neighbour (so x = prev is drawn often) or any vertex.
func TestNode2VecPreAcceptanceMatchesReference(t *testing.T) {
	g, err := gen.ChungLu(gen.Config{NumVertices: 600, AvgDegree: 8, Skew: 0.7, Locality: 0.6, Window: 12, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, g, 1)
	in := g.In()
	weights := []float64{0.25, 0.5, 1, 2, 4}
	const states = 10000
	draw := xrand.New(43)
	for _, p := range weights {
		for _, q := range weights {
			cfg := Config{Kind: Node2Vec, P: p, Q: q}
			if err := cfg.Normalize(); err != nil {
				t.Fatal(err)
			}
			rng := xrand.New(uint64(p*1000 + q))
			returns := 0
			for i := 0; i < states; i++ {
				cur := graph.VertexID(draw.Intn(g.NumVertices()))
				ns := g.Neighbors(cur)
				prev := graph.VertexID(draw.Intn(g.NumVertices()))
				switch ins := in.Neighbors(cur); {
				case i%3 == 0 && len(ins) > 0:
					prev = ins[draw.Intn(len(ins))]
				case i%3 == 1:
					prev = ns[draw.Intn(len(ns))]
				}
				ref := *rng
				want := refNode2VecStep(g, prev, ns, p, q, &ref)
				wk := walker{cur: cur, prev: prev, remaining: int32(cfg.Steps - 1)}
				var to graph.VertexID
				got := e.pick(&wk, &cfg, rng, &to)
				if got == nil {
					t.Fatalf("P=%v Q=%v state %d: pick ended the walk", p, q, i)
				}
				if *got != want {
					t.Fatalf("P=%v Q=%v state %d (cur %d, prev %d): pick chose %d, reference %d", p, q, i, cur, prev, *got, want)
				}
				if *rng != ref {
					t.Fatalf("P=%v Q=%v state %d: RNG left at %v, reference %v", p, q, i, *rng, ref)
				}
				if want == prev {
					returns++
				}
			}
			if returns == 0 {
				t.Fatalf("P=%v Q=%v: no state returned to prev", p, q)
			}
		}
	}
}

// chiSquare returns Pearson's statistic over the cells with expected count
// at least 5, with the rest pooled into one cell, and the number of cells.
// A count where none is expected fails the test outright.
func chiSquare(t *testing.T, what string, obs, exp []float64) (stat float64, cells int) {
	t.Helper()
	var poolObs, poolExp float64
	for i := range obs {
		switch {
		case exp[i] == 0:
			if obs[i] != 0 {
				t.Fatalf("%s: cell %d counted %v, expected none", what, i, obs[i])
			}
		case exp[i] < 5:
			poolObs += obs[i]
			poolExp += exp[i]
		default:
			d := obs[i] - exp[i]
			stat += d * d / exp[i]
			cells++
		}
	}
	if poolExp > 0 {
		d := poolObs - poolExp
		stat += d * d / poolExp
		cells++
	}
	return stat, cells
}

// TestTransitionOneStepMatchesArcWeights checks one step of Simple and
// BiasedWalk against expectations computed from the arc list alone. With
// W walkers on every vertex and Steps 1, vertex v expects
// W·Σ_{u→v} w(u,v)/Σ_x w(u,x) arrivals (w = 1 for Simple, StepWeight for
// BiasedWalk), and arc u→v that many over its source alone; the collected
// two-vertex paths count each arc's traversals. A target loaded for the
// wrong walker leaves the visit counts intact but not the arc counts.
func TestTransitionOneStepMatchesArcWeights(t *testing.T) {
	const n, W = 2000, 40
	g, err := gen.ChungLu(gen.Config{NumVertices: n, AvgDegree: 6, Skew: 0.6, Locality: 0.3, Window: 20, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, g, 4)
	// arc[u] is the index of u's first arc in the arc list: Neighbors(u)[j]
	// is arc arc[u]+j.
	arc := make([]int, n+1)
	for u := 0; u < n; u++ {
		arc[u+1] = arc[u] + g.OutDegree(graph.VertexID(u))
	}
	for _, kind := range []Kind{Simple, BiasedWalk} {
		weight := func(u, v graph.VertexID) float64 { return 1 }
		if kind == BiasedWalk {
			weight = StepWeight
		}
		expVisits := make([]float64, n)
		expArcs := make([]float64, g.NumEdges())
		for u := 0; u < n; u++ {
			ns := g.Neighbors(graph.VertexID(u))
			total := 0.0
			for _, v := range ns {
				total += weight(graph.VertexID(u), v)
			}
			for _, v := range ns {
				x := W * weight(graph.VertexID(u), v) / total
				expVisits[v] += x
				// Parallel arcs (adjacent in a sorted row) share one
				// count, kept on the first.
				expArcs[arc[u]+slices.Index(ns, v)] += x
			}
		}
		res, err := e.Run(Config{Kind: kind, Steps: 1, WalkersPerVertex: W, TrackVisits: true, CollectPaths: true, Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		obsVisits := make([]float64, n)
		for v, c := range res.Visits {
			obsVisits[v] = float64(c)
		}
		obsArcs := make([]float64, g.NumEdges())
		for _, p := range res.Paths {
			if len(p) != 2 {
				t.Fatalf("%v: path %v, want one step", kind, p)
			}
			ns := g.Neighbors(p[0])
			j := slices.Index(ns, p[1])
			if j < 0 {
				t.Fatalf("%v: step %d→%d is not an arc", kind, p[0], p[1])
			}
			obsArcs[arc[p[0]]+j]++
		}
		for _, c := range []struct {
			what     string
			obs, exp []float64
		}{{"visits", obsVisits, expVisits}, {"arcs", obsArcs, expArcs}} {
			stat, cells := chiSquare(t, kind.String()+" "+c.what, c.obs, c.exp)
			// Each source's W walkers are one multinomial, so a cell's
			// variance is at most its mean and the statistic's mean at most
			// cells; allow five standard deviations of a χ² with that many
			// degrees of freedom.
			if bound := float64(cells) + 5*math.Sqrt(2*float64(cells)); stat > bound {
				t.Errorf("%v %s: χ² = %.0f over %d cells, bound %.0f", kind, c.what, stat, cells, bound)
			}
		}
	}
}

// TestAliasCacheConcurrentBuild asks for every vertex's table from several
// goroutines at once: each vertex gets one table, built once and shared.
func TestAliasCacheConcurrentBuild(t *testing.T) {
	g, err := gen.ChungLu(gen.Config{NumVertices: 500, AvgDegree: 6, Skew: 0.7, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := newAliasCache(g)
	const workers = 4
	got := make([][]*xrand.Alias, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]*xrand.Alias, g.NumVertices())
			// Workers start at different vertices so they race to build.
			for i := range got[w] {
				v := (i + w*g.NumVertices()/workers) % g.NumVertices()
				got[w][v] = c.table(graph.VertexID(v))
			}
		}(w)
	}
	wg.Wait()
	for v := 0; v < g.NumVertices(); v++ {
		want := c.table(graph.VertexID(v))
		if want == nil || want.Len() != g.OutDegree(graph.VertexID(v)) {
			t.Fatalf("vertex %d: table %v for out-degree %d", v, want, g.OutDegree(graph.VertexID(v)))
		}
		for w := range got {
			if got[w][v] != want {
				t.Fatalf("vertex %d: worker %d got a different table", v, w)
			}
		}
	}
}

package walk

import (
	"math"
	"testing"

	"bpart/internal/cluster"
	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/xrand"
)

func TestStepWeightBoundedDeterministic(t *testing.T) {
	for u := graph.VertexID(0); u < 30; u++ {
		for v := graph.VertexID(0); v < 30; v++ {
			w := StepWeight(u, v)
			if w < 1 || w > 8 {
				t.Fatalf("weight(%d,%d) = %v", u, v, w)
			}
			if w != StepWeight(u, v) {
				t.Fatal("StepWeight not deterministic")
			}
		}
	}
}

func TestBiasedStepFollowsWeights(t *testing.T) {
	// Vertex 0 has three out-neighbors; sampled frequencies must match
	// the synthetic weights.
	g := graph.FromAdjacency([][]graph.VertexID{{1, 2, 3}, {}, {}, {}})
	e, err := New(g, []int{0, 0, 0, 0}, 1, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Kind: BiasedWalk}
	rng := xrand.New(5)
	counts := map[graph.VertexID]int{}
	const draws = 300000
	wk := walker{cur: 0}
	var to graph.VertexID
	for i := 0; i < draws; i++ {
		next := e.pick(&wk, &cfg, rng, &to)
		if next == nil {
			t.Fatal("biased step terminated with neighbors present")
		}
		counts[*next]++
	}
	total := StepWeight(0, 1) + StepWeight(0, 2) + StepWeight(0, 3)
	for _, v := range []graph.VertexID{1, 2, 3} {
		want := StepWeight(0, v) / total
		got := float64(counts[v]) / draws
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("P(next=%d) = %v, want %v", v, got, want)
		}
	}
}

func TestBiasedStepDeadEnd(t *testing.T) {
	g := graph.FromAdjacency([][]graph.VertexID{{}})
	e, err := New(g, []int{0}, 1, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Kind: BiasedWalk}
	wk := walker{cur: 0}
	var to graph.VertexID
	if e.pick(&wk, &cfg, xrand.New(1), &to) != nil {
		t.Fatal("dead end did not terminate")
	}
}

func TestBiasedWalkRuns(t *testing.T) {
	g, err := gen.ChungLu(gen.Config{NumVertices: 1500, AvgDegree: 8, Skew: 0.7, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, g, 4)
	res, err := e.Run(Config{Kind: BiasedWalk, WalkersPerVertex: 2, Steps: 6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSteps != 1500*2*6 {
		t.Fatalf("TotalSteps = %d (MinOutDegree=1 graphs never dead-end)", res.TotalSteps)
	}
	if BiasedWalk.String() != "BiasedWalk" {
		t.Fatalf("String = %q", BiasedWalk.String())
	}
	// Determinism across runs with shared alias cache warm/cold.
	res2, err := e.Run(Config{Kind: BiasedWalk, WalkersPerVertex: 2, Steps: 6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.MessageWalks != res2.MessageWalks {
		t.Fatal("biased walk not deterministic")
	}
}

func TestAliasCacheSharedAcrossCalls(t *testing.T) {
	g := graph.FromAdjacency([][]graph.VertexID{{1, 2}, {}, {}})
	c := newAliasCache(g)
	t1 := c.table(0)
	t2 := c.table(0)
	if t1 != t2 {
		t.Fatal("alias table rebuilt")
	}
	if c.table(1) != nil {
		t.Fatal("edgeless vertex got a table")
	}
}

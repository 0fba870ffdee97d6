package walk

import (
	"math"
	"testing"

	"bpart/internal/cluster"
	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/partition"
	"bpart/internal/xrand"
)

func newEngine(t testing.TB, g *graph.Graph, k int) *Engine {
	t.Helper()
	a, err := (partition.ChunkV{}).Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g, a.Parts, k, cluster.DefaultCostModel())
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
}

func TestConfigNormalize(t *testing.T) {
	c := Config{Kind: PPR}
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	if c.StopProb != 0.1 || c.Steps != 40 || c.WalkersPerVertex != 1 {
		t.Fatalf("PPR defaults wrong: %+v", c)
	}
	c = Config{Kind: DeepWalk}
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	if c.Steps != 10 {
		t.Fatalf("DeepWalk default steps = %d", c.Steps)
	}
	c = Config{Kind: RWD}
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	if !c.TrackVisits {
		t.Fatal("RWD must track visits")
	}
	tooLong := int64(math.MaxInt32) + 1 // a walker counts its steps in an int32
	for _, bad := range []Config{
		{Kind: Kind(99)},
		{Kind: Simple, WalkersPerVertex: -1},
		{Kind: Simple, Steps: -1},
		{Kind: Simple, Steps: int(tooLong)},
		{Kind: PPR, StopProb: 1.5},
		{Kind: RWJ, JumpProb: -0.5},
		{Kind: Node2Vec, P: -1},
	} {
		cfg := bad
		if err := cfg.Normalize(); err == nil {
			t.Errorf("invalid config %+v accepted", bad)
		}
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		Simple: "SimpleWalk", PPR: "PPR", RWJ: "RWJ",
		RWD: "RWD", DeepWalk: "DeepWalk", Node2Vec: "node2vec",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
	if Kind(42).String() == "" {
		t.Fatal("unknown kind has empty String")
	}
}

func TestSimpleWalkStepCount(t *testing.T) {
	// On a ring nobody terminates early: total steps must be exactly
	// walkers × steps, and iterations must equal the step count (Fig 4's
	// one-step-per-iteration model).
	g := gen.Ring(100)
	e := newEngine(t, g, 4)
	res, err := e.Run(Config{Kind: Simple, WalkersPerVertex: 5, Steps: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(100 * 5 * 4); res.TotalSteps != want {
		t.Fatalf("TotalSteps = %d, want %d", res.TotalSteps, want)
	}
	if len(res.Stats.Iterations) != 4 {
		t.Fatalf("iterations = %d, want 4", len(res.Stats.Iterations))
	}
}

func TestRingMessageWalksMatchCutCrossings(t *testing.T) {
	// Deterministic ring: each walker moves +1 per step. With 4
	// contiguous parts of 25, a walker crosses a boundary iff its path
	// [v+1, v+4] passes a multiple of 25 — exactly 4 boundaries × 4
	// start offsets = 16 crossing walkers, one message each.
	g := gen.Ring(100)
	e := newEngine(t, g, 4)
	res, err := e.Run(Config{Kind: Simple, WalkersPerVertex: 1, Steps: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.MessageWalks != 16 {
		t.Fatalf("MessageWalks = %d, want 16", res.MessageWalks)
	}
}

func TestDeterminism(t *testing.T) {
	g, err := gen.ChungLu(gen.Config{NumVertices: 2000, AvgDegree: 8, Skew: 0.75, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, g, 4)
	cfg := Config{Kind: Simple, WalkersPerVertex: 2, Steps: 5, Seed: 42, TrackVisits: true}
	r1, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.TotalSteps != r2.TotalSteps || r1.MessageWalks != r2.MessageWalks {
		t.Fatalf("non-deterministic: (%d,%d) vs (%d,%d)",
			r1.TotalSteps, r1.MessageWalks, r2.TotalSteps, r2.MessageWalks)
	}
	for v := range r1.Visits {
		if r1.Visits[v] != r2.Visits[v] {
			t.Fatalf("visit counts differ at %d", v)
		}
	}
}

func TestPPRTerminatesEarly(t *testing.T) {
	g := gen.Ring(1000)
	e := newEngine(t, g, 4)
	res, err := e.Run(Config{Kind: PPR, WalkersPerVertex: 1, Steps: 40, StopProb: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Expected walk length with stop 0.5 is 2; must be far below the cap.
	mean := float64(res.TotalSteps) / 1000
	if mean > 4 || mean < 1 {
		t.Fatalf("mean PPR steps %v, want ≈2", mean)
	}
}

func TestRWJJumpsLeaveDeadEnds(t *testing.T) {
	// Star sinks: vertices 1..n-1 have no out-edges; only 0 points out.
	adj := make([][]graph.VertexID, 50)
	adj[0] = []graph.VertexID{1, 2, 3}
	g := graph.FromAdjacency(adj)
	a, _ := (partition.ChunkV{}).Partition(g, 2)
	e, err := New(g, a.Parts, 2, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(Config{Kind: RWJ, WalkersPerVertex: 1, Steps: 6, JumpProb: 0.2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Simple walks would die instantly at the 49 sinks (49 + a few
	// steps); RWJ teleports out of them, so every walker runs all 6 steps.
	if want := int64(50 * 6); res.TotalSteps != want {
		t.Fatalf("TotalSteps = %d, want %d (jumps must rescue dead ends)", res.TotalSteps, want)
	}
}

func TestSimpleWalkDiesAtDeadEnd(t *testing.T) {
	// 0 -> 1, 1 is a sink: the walker from 0 takes 2 steps (move + die),
	// the walker from 1 takes 1 (die immediately).
	g := graph.FromAdjacency([][]graph.VertexID{{1}, {}})
	e, err := New(g, []int{0, 1}, 2, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(Config{Kind: Simple, WalkersPerVertex: 1, Steps: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSteps != 3 {
		t.Fatalf("TotalSteps = %d, want 3", res.TotalSteps)
	}
}

func TestVisitsCountArrivals(t *testing.T) {
	// Deterministic 2-cycle: walker from 0 visits 1 then 0; walker from 1
	// visits 0 then 1. Each vertex is arrived at exactly twice.
	g := graph.FromAdjacency([][]graph.VertexID{{1}, {0}})
	e, err := New(g, []int{0, 1}, 2, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run(Config{Kind: Simple, WalkersPerVertex: 1, Steps: 2, Seed: 1, TrackVisits: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Visits[0] != 2 || res.Visits[1] != 2 {
		t.Fatalf("Visits = %v, want [2 2]", res.Visits)
	}
	// Every arrival crossed machines: 4 message walks.
	if res.MessageWalks != 4 {
		t.Fatalf("MessageWalks = %d, want 4", res.MessageWalks)
	}
}

func TestHubsAttractWalkers(t *testing.T) {
	g, err := gen.ChungLu(gen.Config{NumVertices: 3000, AvgDegree: 10, Skew: 0.8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, g, 4)
	res, err := e.Run(Config{Kind: DeepWalk, WalkersPerVertex: 2, Steps: 8, Seed: 13, TrackVisits: true})
	if err != nil {
		t.Fatal(err)
	}
	meanVisits := float64(res.TotalSteps) / 3000
	if float64(res.Visits[0]) < 3*meanVisits {
		t.Fatalf("hub visits %d not above mean %v", res.Visits[0], meanVisits)
	}
}

func TestNode2VecRuns(t *testing.T) {
	g, err := gen.ChungLu(gen.Config{NumVertices: 1000, AvgDegree: 10, Skew: 0.7, Locality: 0.5, Window: 32, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, g, 4)
	res, err := e.Run(Config{Kind: Node2Vec, WalkersPerVertex: 1, Steps: 8, P: 4, Q: 0.25, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSteps < 1000*6 {
		t.Fatalf("node2vec total steps %d suspiciously low", res.TotalSteps)
	}
}

func TestNode2VecStepDistribution(t *testing.T) {
	// Walker sits at v=1 with prev=t=0. Its three choices are the
	// return vertex 0 (weight 1/P), vertex 2 which is a neighbor of t
	// (weight 1), and vertex 3 which is not (weight 1/Q). The rejection
	// sampler must reproduce those relative frequencies.
	g := graph.FromAdjacency([][]graph.VertexID{
		{1, 2},    // t=0: edge to v and to x=2
		{0, 2, 3}, // v=1: the three choices
		{},
		{},
	})
	e, err := New(g, []int{0, 0, 0, 0}, 1, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	const p, q = 4.0, 0.25
	cfg := Config{Kind: Node2Vec, P: p, Q: q}
	if err := cfg.Normalize(); err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(99)
	counts := map[graph.VertexID]int{}
	const draws = 200000
	wk := walker{cur: 1, prev: 0}
	for i := 0; i < draws; i++ {
		counts[e.node2vecStep(&wk, &cfg, rng, g.Neighbors(1))]++
	}
	total := 1/p + 1 + 1/q // unnormalized mass
	wants := map[graph.VertexID]float64{
		0: (1 / p) / total,
		2: 1 / total,
		3: (1 / q) / total,
	}
	for v, want := range wants {
		got := float64(counts[v]) / draws
		if diff := got - want; diff > 0.01 || diff < -0.01 {
			t.Errorf("P(next=%d) = %v, want %v", v, got, want)
		}
	}
}

func TestChunkVImbalanceShowsInWaiting(t *testing.T) {
	// The headline Fig 13 effect: on a skewed graph, Chunk-V placement
	// yields a much higher wait ratio than a balanced placement.
	g, err := gen.ChungLu(gen.Config{NumVertices: 8000, AvgDegree: 12, Skew: 0.8, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Kind: Simple, WalkersPerVertex: 5, Steps: 4, Seed: 29}

	cv, _ := (partition.ChunkV{}).Partition(g, 8)
	e1, err := New(g, cv.Parts, 8, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := e1.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	h, _ := (partition.Hash{}).Partition(g, 8)
	e2, err := New(g, h.Parts, 8, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := e2.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.WaitRatio() <= r2.Stats.WaitRatio() {
		t.Fatalf("Chunk-V wait ratio %v not above Hash %v",
			r1.Stats.WaitRatio(), r2.Stats.WaitRatio())
	}
}

func TestTrafficMatrixConsistent(t *testing.T) {
	g, err := gen.ChungLu(gen.Config{NumVertices: 2000, AvgDegree: 8, Skew: 0.75, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, g, 4)
	res, err := e.Run(Config{Kind: Simple, WalkersPerVertex: 3, Steps: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Traffic) != 4 {
		t.Fatalf("traffic matrix dimension %d", len(res.Traffic))
	}
	var total int64
	for from := range res.Traffic {
		for to, c := range res.Traffic[from] {
			if from == to && c != 0 {
				t.Fatalf("self traffic [%d][%d] = %d", from, to, c)
			}
			if c < 0 {
				t.Fatalf("negative traffic [%d][%d]", from, to)
			}
			total += c
		}
	}
	if total != res.MessageWalks {
		t.Fatalf("traffic matrix sum %d != MessageWalks %d", total, res.MessageWalks)
	}
}

func TestSourcesRestrictStarts(t *testing.T) {
	g, err := gen.ChungLu(gen.Config{NumVertices: 1000, AvgDegree: 8, Skew: 0.7, Locality: 0.6, Window: 32, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, g, 4)
	res, err := e.Run(Config{
		Kind: PPR, WalkersPerVertex: 50, Steps: 20, StopProb: 0.2,
		Sources: []graph.VertexID{123}, Seed: 43, TrackVisits: true, CollectPaths: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Finished != 50 {
		t.Fatalf("Finished = %d, want 50", res.Finished)
	}
	if len(res.Paths) != 50 {
		t.Fatalf("paths = %d", len(res.Paths))
	}
	for _, p := range res.Paths {
		if p[0] != 123 {
			t.Fatalf("walk started at %d, want 123", p[0])
		}
	}
	// Personalized PageRank locality: vertices near the source get
	// visited; a random far vertex usually does not. At least the source
	// neighborhood must dominate visits.
	var near, total int64
	for v, c := range res.Visits {
		total += c
		if v > 23 && v < 223 { // locality window around 123
			near += c
		}
	}
	if total == 0 {
		t.Fatal("no visits recorded")
	}
	if _, err := e.Run(Config{Kind: PPR, Sources: []graph.VertexID{99999}}); err == nil {
		t.Fatal("out-of-range source accepted")
	}
}

func TestWalkerConservation(t *testing.T) {
	// Steps per walker never exceed the cap; walkers never duplicate:
	// total steps ≤ walkers × steps for every kind.
	g, err := gen.ChungLu(gen.Config{NumVertices: 500, AvgDegree: 6, Skew: 0.7, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, g, 3)
	for _, kind := range []Kind{Simple, PPR, RWJ, RWD, DeepWalk, Node2Vec} {
		res, err := e.Run(Config{Kind: kind, WalkersPerVertex: 2, Seed: 37})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		cfg := Config{Kind: kind, WalkersPerVertex: 2}
		if err := cfg.Normalize(); err != nil {
			t.Fatal(err)
		}
		maxSteps := int64(500 * 2 * cfg.Steps)
		if res.TotalSteps > maxSteps || res.TotalSteps <= 0 {
			t.Fatalf("%v: TotalSteps = %d, want in (0, %d]", kind, res.TotalSteps, maxSteps)
		}
	}
}

func BenchmarkSimpleWalk(b *testing.B) {
	g, err := gen.ChungLu(gen.Config{NumVertices: 20000, AvgDegree: 16, Skew: 0.75, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	a, _ := (partition.ChunkV{}).Partition(g, 8)
	e, err := New(g, a.Parts, 8, cluster.DefaultCostModel())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(Config{Kind: Simple, WalkersPerVertex: 5, Steps: 4, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunRefusesTooManyWalkers: a walker's path slot is 32 bits, so a run
// whose walker count does not fit fails before allocating any walker.
func TestRunRefusesTooManyWalkers(t *testing.T) {
	e := newEngine(t, gen.Ring(5), 1)
	if _, err := e.Run(Config{Kind: Simple, WalkersPerVertex: 1 << 30, Steps: 1, Seed: 1}); err == nil {
		t.Fatal("5 × 2^30 walkers accepted")
	}
}

package walk

import (
	"math"
	"runtime"
	"testing"
	"unsafe"

	"bpart/internal/gen"
	"bpart/internal/graph"
)

// warmRunBytes returns the bytes of a fresh engine's first Run of cfg on g
// (k = 4, one worker: no pool goroutines, whose allocation varies), and
// the fewest bytes of the five Runs after it: the runtime's own
// allocations (a GC's worker goroutines) land in some windows, and only
// add.
func warmRunBytes(t *testing.T, g *graph.Graph, cfg Config) (first, warm float64) {
	t.Helper()
	e := newEngine(t, g, 4)
	e.Cluster().SetWorkers(1)
	run := func() float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := e.Run(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	first, warm = run(), math.Inf(1)
	for i := 0; i < 5; i++ {
		warm = min(warm, run())
	}
	return first, warm
}

// TestWalkerIs16Bytes pins the walker's size. A 20-byte layout (the same
// fields plus a hasPrev bool) stepped SimpleWalk, PPR and DeepWalk ≈ 2×
// slower than the 40-byte walker that carried its own path slice; 16 bytes
// was as fast or faster.
func TestWalkerIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(walker{}); got != 16 {
		t.Fatalf("walker is %d bytes, want 16", got)
	}
}

// TestRunAllocBudget bounds what a Run allocates. The engine keeps its
// walker buffers, so after one warm-up Run a Simple Run allocates its
// Result and per-superstep counters only: the same bytes on a 10k- and a
// 100k-vertex graph (outboxes made fresh per Run cost 45–55 B per walker
// here). The first Run sizes the buffers: one 16-byte entry per walker
// plus outbox and delivery growth, 86 B per walker on this graph. With
// CollectPaths, every path lives in one arena, so the allocation count
// does not grow with the walker count (one slice per walker took > n
// allocations).
func TestRunAllocBudget(t *testing.T) {
	runBytes := func(n int) (first, warm float64) {
		g, err := gen.ChungLu(gen.Config{NumVertices: n, AvgDegree: 8, Skew: 0.6, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return warmRunBytes(t, g, Config{Kind: Simple, Seed: 1})
	}
	first, small := runBytes(10_000)
	_, large := runBytes(100_000)
	t.Logf("first Run %.1f B per walker; later Runs %.0f B on 10k vertices, %.0f B on 100k", first/10_000, small, large)
	if math.Abs(large-small) > 64 {
		t.Errorf("a Simple Run on a built engine allocates %.0f B on 10k vertices and %.0f B on 100k: it pays for its walkers", small, large)
	}
	if perWalker := first / 10_000; perWalker > 95 {
		t.Errorf("a fresh engine's first Simple Run allocates %.1f B per walker, budget 95", perWalker)
	}

	const n = 20000
	g, err := gen.ChungLu(gen.Config{NumVertices: n, AvgDegree: 8, Skew: 0.6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, g, 4)
	cfg := Config{Kind: Simple, Seed: 1, CollectPaths: true}
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := e.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > n/20 {
		t.Errorf("Simple run with paths makes %.0f allocations for %d walkers, budget %d", allocs, n, n/20)
	}
}

// TestSourcesAllocBudget bounds a Sources Run: it buckets its sources by
// owner, so after a warm-up a single-source PPR Run allocates the same
// bytes on a 10k- and a 100k-vertex ring (a |V| source bitmap cost 24,424 B
// and 121,336 B on ChungLu graphs of those sizes). On a ring the walk from
// one vertex takes the same steps at both sizes, so only a cost that grows
// with |V| can tell the two apart.
func TestSourcesAllocBudget(t *testing.T) {
	cfg := Config{Kind: PPR, Seed: 3, Sources: []graph.VertexID{7}}
	_, small := warmRunBytes(t, gen.Ring(10_000), cfg)
	_, large := warmRunBytes(t, gen.Ring(100_000), cfg)
	t.Logf("a single-source PPR Run allocates %.0f B on 10k vertices, %.0f B on 100k", small, large)
	if math.Abs(large-small) > 64 {
		t.Errorf("a single-source PPR Run on a built engine allocates %.0f B on 10k vertices and %.0f B on 100k: it pays for |V|", small, large)
	}
}

package engine

import (
	"math"
	"runtime"
	"testing"

	"bpart/internal/gen"
)

// TestCCRunAllocBudget bounds what a frontier Run allocates on a built
// engine. The engine keeps its kernel state (proposals, dirty bits, both
// frontier buffers, the bitmap, the per-chunk and per-task scratch), so
// after one warm-up Run a CC Run allocates its Result and its per-superstep
// counters only: beyond its 4·|V| labels, the same bytes on a 10k- and a
// 100k-vertex graph. The labels are one large allocation, rounded up to
// whole 8 KiB pages, so the two sizes may differ by less than a page. A
// frontier built fresh each superstep costs ≥ 4 B per member here, which
// the first CC superstep's frontier alone (most of |V|) puts far beyond
// that.
func TestCCRunAllocBudget(t *testing.T) {
	beyondLabels := func(n int) (first, warm float64) {
		g, err := gen.ChungLu(gen.Config{NumVertices: n, AvgDegree: 8, Skew: 0.6, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		e := newEngine(t, g, 4)
		e.Cluster().SetWorkers(1) // no pool goroutines, whose allocation varies
		run := func() float64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := e.ConnectedComponents(0); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			return float64(after.TotalAlloc-before.TotalAlloc) - 4*float64(n)
		}
		// The runtime's own allocations (a GC's worker goroutines) land in
		// some windows, and only add: keep the fewest bytes of five Runs.
		first, warm = run(), math.Inf(1)
		for i := 0; i < 5; i++ {
			warm = min(warm, run())
		}
		return first, warm
	}
	_, small := beyondLabels(10_000)
	first, large := beyondLabels(100_000)
	t.Logf("beyond its labels, a CC Run allocates %.0f B on 10k vertices and %.0f B on 100k; a fresh engine's first Run %.1f B per vertex", small, large, first/100_000)
	if math.Abs(large-small) > 8192 {
		t.Errorf("beyond its labels, a CC Run on a built engine allocates %.0f B on 10k vertices and %.0f B on 100k: it pays for |V|", small, large)
	}
}

package walk

import (
	"testing"
	"unsafe"

	"bpart/internal/gen"
)

// TestWalkerIs16Bytes pins the walker's size. A 20-byte layout (the same
// fields plus a hasPrev bool) stepped SimpleWalk, PPR and DeepWalk ≈ 2×
// slower than the 40-byte walker that carried its own path slice; 16 bytes
// was as fast or faster.
func TestWalkerIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(walker{}); got != 16 {
		t.Fatalf("walker is %d bytes, want 16", got)
	}
}

// TestRunAllocBudget bounds what one Run allocates per walker. A Simple
// run keeps one exact-capacity 16-byte entry per walker plus outbox and
// delivery growth (≈ 100 B per walker on this graph); 40-byte walkers
// appended into lists grown from empty took ≈ 310 B. With CollectPaths,
// every path lives in one arena, so the allocation count does not grow
// with the walker count (one slice per walker took > n allocations).
func TestRunAllocBudget(t *testing.T) {
	const n = 20000
	g, err := gen.ChungLu(gen.Config{NumVertices: n, AvgDegree: 8, Skew: 0.6, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, g, 4)
	cfg := Config{Kind: Simple, Seed: 1}
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.Run(cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	if perWalker := float64(r.AllocedBytesPerOp()) / n; perWalker > 160 {
		t.Errorf("Simple run allocates %.1f B per walker, budget 160", perWalker)
	}

	cfg.CollectPaths = true
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := e.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > n/20 {
		t.Errorf("Simple run with paths makes %.0f allocations for %d walkers, budget %d", allocs, n, n/20)
	}
}

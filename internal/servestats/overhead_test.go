package servestats

import (
	"testing"

	"bpart/internal/graph"
	"bpart/internal/telemetry"
)

// servingWork is the measured unit: a lookup plus a walk against the
// backend with the recorder hooks wired exactly as the handlers wire them
// (a nil rec is the disabled path).
func servingWork(b *Backend, rec *Recorder, v int) {
	start := rec.Start()
	view := b.View()
	part := view.Part(graph.VertexID(v))
	_, _ = b.Walk(graph.VertexID(v), 32, 0, uint64(v))
	rec.End(start, EndpointLookup, graph.VertexID(v), part, view.Version(), 200)
}

// servingWorkBare is servingWork with the hook sites deleted — the
// overhead gate's baseline, kept structurally identical otherwise.
func servingWorkBare(b *Backend, v int) {
	view := b.View()
	_ = view.Part(graph.VertexID(v))
	_, _ = b.Walk(graph.VertexID(v), 32, 0, uint64(v))
}

// BenchmarkServeNoStats is the disabled-path baseline: backend work with a
// nil recorder (the default when bpartd runs without -reqlog or stats).
func BenchmarkServeNoStats(b *testing.B) {
	back, err := NewBackend(ringGraph(1024), blockAssignment(1024, 8), 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		servingWork(back, nil, i%1024)
	}
}

// BenchmarkServeWithStats is the same work with a live recorder (no log
// sink) — what the <5% claim is measured against in BENCH runs.
func BenchmarkServeWithStats(b *testing.B) {
	back, err := NewBackend(ringGraph(1024), blockAssignment(1024, 8), 8)
	if err != nil {
		b.Fatal(err)
	}
	rec := NewRecorder(8, nil, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		servingWork(back, rec, i%1024)
	}
}

// TestDisabledStatsOverheadGate is the <5% overhead gate for the serving
// hook sites, matching the probe/audit gates: with stats disabled (nil
// recorder) the per-request hooks are two nil checks and must be
// indistinguishable from no hooks at all. Measured as best-of-N with the two
// variants interleaved, so scheduler noise hits both alike; skipped in
// -short mode where a timing assertion is meaningless.
func TestDisabledStatsOverheadGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	if raceEnabled {
		// The race detector's instrumentation, not the stats path, sets the
		// timing: the 5 % gate fails on about one -race run in five whether
		// or not the code changed. Plain `go test` still runs it.
		t.Skip("timing gate skipped under the race detector")
	}
	back, err := NewBackend(ringGraph(1024), blockAssignment(1024, 8), 8)
	if err != nil {
		t.Fatal(err)
	}
	const iters = 100000
	measure := func(withHooks bool) float64 {
		sw := telemetry.NewStopwatch()
		for i := 0; i < iters; i++ {
			if withHooks {
				servingWork(back, nil, i%1024)
			} else {
				servingWorkBare(back, i%1024)
			}
		}
		return sw.Seconds()
	}
	// Noise only ever inflates a measurement, so both minima converge on
	// the true cost from above: keep sampling until they agree, and fail
	// only if they still differ after maxReps.
	const minReps, maxReps = 5, 40
	var best [2]float64 // base, hooked
	var overhead float64
	for r := 0; r < maxReps; r++ {
		// Alternate which variant goes first.
		for _, i := range [2]int{r % 2, 1 - r%2} {
			if s := measure(i == 1); r == 0 || s < best[i] {
				best[i] = s
			}
		}
		if overhead = best[1]/best[0] - 1; r+1 >= minReps && overhead <= 0.05 {
			break
		}
	}
	base, hooked := best[0], best[1]
	t.Logf("disabled-stats overhead: base %.2fms, hooked %.2fms, overhead %.2f%%",
		base*1e3, hooked*1e3, overhead*100)
	if overhead > 0.05 {
		t.Fatalf("disabled serving stats overhead %.2f%% exceeds the 5%% gate", overhead*100)
	}
}

package servestats

import (
	"testing"

	"bpart/internal/graph"
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
// sink): the cost of turning serving stats on.
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

// TestDisabledStatsOverheadGate gates the serving hook sites with stats
// disabled (nil recorder), the default when bpartd runs without -reqlog or
// stats, by counts rather than by a clock: Start reads no clock and returns
// the zero time, and a hooked request allocates exactly what the same
// request with the hook sites deleted does. BenchmarkServeNoStats and
// BenchmarkServeWithStats stay as the wall-clock reference.
func TestDisabledStatsOverheadGate(t *testing.T) {
	var rec *Recorder
	if start := rec.Start(); !start.IsZero() {
		t.Fatalf("nil recorder's Start returned %v, want the zero time", start)
	}
	back, err := NewBackend(ringGraph(1024), blockAssignment(1024, 8), 8)
	if err != nil {
		t.Fatal(err)
	}
	v := 0
	hooked := testing.AllocsPerRun(1000, func() {
		servingWork(back, rec, v)
		v = (v + 1) % 1024
	})
	bare := testing.AllocsPerRun(1000, func() {
		servingWorkBare(back, v)
		v = (v + 1) % 1024
	})
	if hooked != bare {
		t.Fatalf("disabled serving stats: %v allocs per request, %v without the hook sites", hooked, bare)
	}
}

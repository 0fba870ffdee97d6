package partition

import (
	"testing"

	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/metrics"
)

func TestSpinnerValidAndEdgeLeaning(t *testing.T) {
	g := twitterish(t)
	a := mustPartition(t, Spinner{}, g, 8)
	r := metrics.NewReport(g, a.Parts, 8, false)
	// Spinner balances degree mass: the edge dimension must come out
	// far better balanced than Chunk-V's.
	cv := mustPartition(t, ChunkV{}, g, 8)
	rcv := metrics.NewReport(g, cv.Parts, 8, false)
	if r.EdgeBias >= rcv.EdgeBias/2 {
		t.Fatalf("Spinner edge bias %v not well below Chunk-V's %v", r.EdgeBias, rcv.EdgeBias)
	}
	// ... and its cut must beat Hash.
	h := mustPartition(t, Hash{}, g, 8)
	if rc, hc := r.CutRatio, metrics.EdgeCutRatio(g, h.Parts); rc >= hc {
		t.Fatalf("Spinner cut %v not below Hash %v", rc, hc)
	}
}

func TestSpinnerCapacityRespected(t *testing.T) {
	g := twitterish(t)
	a := mustPartition(t, Spinner{}, g, 4)
	in := g.Transpose()
	load := make([]float64, 4)
	var total float64
	for v := 0; v < g.NumVertices(); v++ {
		d := float64(g.OutDegree(graph.VertexID(v)) + in.OutDegree(graph.VertexID(v)))
		load[a.Parts[v]] += d
		total += d
	}
	cap := (1 + spinnerSlack) * total / 4
	for l, ld := range load {
		// Initialization is random and only moves respect capacity, so
		// allow the initial random overshoot margin (~sqrt effects):
		// capacity must hold within a few percent.
		if ld > cap*1.05 {
			t.Fatalf("label %d degree mass %v exceeds capacity %v", l, ld, cap)
		}
	}
}

func TestSpinnerDeterministic(t *testing.T) {
	g := gen.Ring(500)
	a1 := mustPartition(t, Spinner{}, g, 4)
	a2 := mustPartition(t, Spinner{}, g, 4)
	for v := range a1.Parts {
		if a1.Parts[v] != a2.Parts[v] {
			t.Fatal("Spinner not deterministic")
		}
	}
}

func TestSpinnerRegistered(t *testing.T) {
	p, err := Get("Spinner")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "Spinner" {
		t.Fatalf("Name = %q", p.Name())
	}
}

func TestSpinnerArgs(t *testing.T) {
	if _, err := (Spinner{}).Partition(nil, 4); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := (Spinner{}).Partition(gen.Ring(4), 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

package multilevel

import (
	"testing"

	"bpart/internal/telemetry"
)

// A traced Multilevel run must emit one multilevel.partition span, one
// coarsen span, one initial span and one refine span per level, and fill
// the metrics registry.
func TestPartitionTelemetry(t *testing.T) {
	g := testGraph(t)
	m := New()
	tr := telemetry.NewMemory()
	reg := telemetry.NewRegistry()
	m.SetTelemetry(tr, reg)

	const k = 8
	a, err := m.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}

	runs := tr.Find("multilevel.partition")
	if len(runs) != 1 {
		t.Fatalf("got %d multilevel.partition spans, want 1", len(runs))
	}
	if got := runs[0].Attr("k"); got != int64(k) {
		t.Fatalf("run span k = %v", got)
	}
	levels, ok := runs[0].Attr("levels").(int64)
	if !ok || levels < 1 {
		t.Fatalf("run span levels = %v, want >= 1", runs[0].Attr("levels"))
	}
	if _, ok := runs[0].Attr("refine_moves").(int64); !ok {
		t.Fatalf("run span refine_moves = %v", runs[0].Attr("refine_moves"))
	}

	coarsens := tr.Find("multilevel.coarsen")
	if len(coarsens) != 1 {
		t.Fatalf("got %d multilevel.coarsen spans, want 1", len(coarsens))
	}
	if got := coarsens[0].Attr("levels"); got != levels {
		t.Fatalf("coarsen span levels = %v, run span says %d", got, levels)
	}
	cv, ok := coarsens[0].Attr("coarsest_vertices").(int64)
	if !ok || cv <= 0 || cv > int64(g.NumVertices()) {
		t.Fatalf("coarsest_vertices = %v (graph has %d)", coarsens[0].Attr("coarsest_vertices"), g.NumVertices())
	}

	inits := tr.Find("multilevel.initial")
	if len(inits) != 1 {
		t.Fatalf("got %d multilevel.initial spans, want 1", len(inits))
	}
	if got := inits[0].Attr("super_vertices"); got != cv {
		t.Fatalf("initial span super_vertices = %v, coarsen says %d", got, cv)
	}

	refines := tr.Find("multilevel.refine")
	if int64(len(refines)) != levels {
		t.Fatalf("got %d multilevel.refine spans, want one per level (%d)", len(refines), levels)
	}
	spanMoves := int64(0)
	for i, sp := range refines {
		// Uncoarsening walks levels coarsest-first.
		if got := sp.Attr("level"); got != levels-1-int64(i) {
			t.Fatalf("refine span %d level attr = %v, want %d", i, got, levels-1-int64(i))
		}
		mv, ok := sp.Attr("moves").(int64)
		if !ok || mv < 0 {
			t.Fatalf("refine span %d moves = %v", i, sp.Attr("moves"))
		}
		spanMoves += mv
	}
	if got := runs[0].Attr("refine_moves"); got != spanMoves {
		t.Fatalf("run span refine_moves = %v, refine spans sum to %d", got, spanMoves)
	}

	if got := reg.Counter("multilevel_partition_total").Value(); got != 1 {
		t.Fatalf("multilevel_partition_total = %d, want 1", got)
	}
	if got := reg.Counter("multilevel_partition_levels_total").Value(); got != levels {
		t.Fatalf("multilevel_partition_levels_total = %d, want %d", got, levels)
	}
	if got := reg.Counter("multilevel_refine_moves_total").Value(); got != spanMoves {
		t.Fatalf("multilevel_refine_moves_total = %d, refine spans sum to %d", got, spanMoves)
	}
}

// An uninstrumented Multilevel must behave identically (the telemetry
// default is the no-op tracer), and instrumenting must not change the
// result.
func TestTelemetryDoesNotChangeResult(t *testing.T) {
	g := testGraph(t)
	plain := New()
	a1, err := plain.Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	traced := New()
	traced.SetTelemetry(telemetry.NewMemory(), telemetry.NewRegistry())
	a2, err := traced.Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a1.Parts {
		if a1.Parts[v] != a2.Parts[v] {
			t.Fatalf("vertex %d: untraced part %d, traced part %d", v, a1.Parts[v], a2.Parts[v])
		}
	}
}

package core

import (
	"testing"

	"bpart/internal/telemetry"
)

// A traced BPart run must emit one bpart.partition span, one bpart.layer
// span per combining layer (with frozen counts and residual bias), one
// partition.stream span per layer, and a bpart.refine span, and fill the
// metrics registry.
func TestPartitionTelemetry(t *testing.T) {
	g := twitterish(t)
	b := defaultBPart(t)
	tr := telemetry.NewMemory()
	reg := telemetry.NewRegistry()
	b.SetTelemetry(tr, reg)

	const k = 8
	_, trace, err := b.PartitionWithTrace(g, k)
	if err != nil {
		t.Fatal(err)
	}

	runs := tr.Find("bpart.partition")
	if len(runs) != 1 {
		t.Fatalf("got %d bpart.partition spans, want 1", len(runs))
	}
	if got := runs[0].Attr("k"); got != int64(k) {
		t.Fatalf("run span k = %v", got)
	}
	if got := runs[0].Attr("layers"); got != int64(len(trace.Layers)) {
		t.Fatalf("run span layers = %v, trace has %d", got, len(trace.Layers))
	}

	layers := tr.Find("bpart.layer")
	if len(layers) != len(trace.Layers) {
		t.Fatalf("got %d bpart.layer spans, trace has %d layers", len(layers), len(trace.Layers))
	}
	totalFrozen := int64(0)
	for i, sp := range layers {
		lt := trace.Layers[i]
		if got := sp.Attr("layer"); got != int64(lt.Layer) {
			t.Fatalf("layer %d span layer attr = %v", i, got)
		}
		if got := sp.Attr("pieces"); got != int64(lt.Pieces) {
			t.Fatalf("layer %d span pieces = %v, want %d", i, got, lt.Pieces)
		}
		if got := sp.Attr("groups_frozen"); got != int64(lt.Finalized) {
			t.Fatalf("layer %d span groups_frozen = %v, want %d", i, got, lt.Finalized)
		}
		if got := sp.Attr("parts_remaining"); got != int64(lt.RemainingNr) {
			t.Fatalf("layer %d span parts_remaining = %v, want %d", i, got, lt.RemainingNr)
		}
		vBias, okV := sp.Attr("residual_v_bias").(float64)
		eBias, okE := sp.Attr("residual_e_bias").(float64)
		if !okV || !okE || vBias < 0 || eBias < 0 {
			t.Fatalf("layer %d residual bias attrs = %v / %v",
				i, sp.Attr("residual_v_bias"), sp.Attr("residual_e_bias"))
		}
		pf, ok := sp.Attr("pieces_frozen").(int64)
		if !ok || pf < 0 || pf > int64(lt.Pieces) {
			t.Fatalf("layer %d pieces_frozen = %v (pieces %d)", i, sp.Attr("pieces_frozen"), lt.Pieces)
		}
		totalFrozen += int64(lt.Finalized)
	}
	if totalFrozen != k {
		t.Fatalf("layer spans froze %d groups total, want %d", totalFrozen, k)
	}

	if streams := tr.Find("partition.stream"); len(streams) != len(trace.Layers) {
		t.Fatalf("got %d partition.stream spans, want %d", len(streams), len(trace.Layers))
	}
	if refines := tr.Find("bpart.refine"); len(refines) != 1 {
		t.Fatalf("got %d bpart.refine spans, want 1", len(refines))
	}

	if got := reg.Counter("bpart_layer_total").Value(); got != int64(len(trace.Layers)) {
		t.Fatalf("bpart_layer_total = %d, want %d", got, len(trace.Layers))
	}
	if got := reg.Counter("bpart_layer_groups_frozen_total").Value(); got != int64(k) {
		t.Fatalf("bpart_layer_groups_frozen_total = %d, want %d", got, k)
	}
	last := layers[len(layers)-1].Attr("residual_v_bias")
	if got := reg.Gauge("bpart_layer_residual_v_bias").Value(); got != last {
		t.Fatalf("bpart_layer_residual_v_bias = %v, want the last layer's %v", got, last)
	}
	if got := reg.Counter("bpart_partition_total").Value(); got != 1 {
		t.Fatalf("bpart_partition_total = %d, want 1", got)
	}
	if got := reg.Counter("partition_stream_placed_total").Value(); got < int64(g.NumVertices()) {
		t.Fatalf("partition_stream_placed_total = %d, want >= %d (every vertex streams at least once)",
			got, g.NumVertices())
	}
}

// An uninstrumented BPart must behave identically (the telemetry default is
// the no-op tracer), and instrumenting must not change the result.
func TestTelemetryDoesNotChangeResult(t *testing.T) {
	g := twitterish(t)
	plain := defaultBPart(t)
	a1, err := plain.Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	traced := defaultBPart(t)
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

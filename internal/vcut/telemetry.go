package vcut

import (
	"bpart/internal/graph"
	"bpart/internal/metrics"
	"bpart/internal/telemetry"
)

// observability holds the optional tracer a scheme carries;
// embedding it gives every scheme SetTelemetry (telemetry.Instrumentable)
// via a pointer receiver — attach with a pointer instance, e.g. the
// facade's NewRandomEdgeCut.
type observability struct {
	tr telemetry.Tracer
}

// SetTelemetry implements telemetry.Instrumentable: tr (may be nil)
// receives one "vcut.partition" span per Partition call; reg (may be nil)
// is teed beside it (see telemetry.Instrumentable).
func (o *observability) SetTelemetry(tr telemetry.Tracer, reg *telemetry.Registry) {
	o.tr = telemetry.Tee(tr, reg)
}

// startSpan opens the per-partition span when tracing is attached.
func (o observability) startSpan(scheme string, g *graph.Graph, k int) telemetry.Span {
	if o.tr == nil || !o.tr.Enabled() {
		return nil
	}
	return o.tr.Span("vcut.partition",
		telemetry.String("scheme", scheme),
		telemetry.Int("k", k),
		telemetry.Int("vertices", g.NumVertices()),
		telemetry.Int("edges", g.NumEdges()))
}

// finish publishes the finished assignment's quality — replication factor,
// max replicas, edge balance — on the span. The O(|E|) replication scan
// runs only when telemetry is attached.
func (o observability) finish(sp telemetry.Span, g *graph.Graph, a *EdgeAssignment) {
	if sp == nil {
		return
	}
	rep := NewReport(g, a)
	sp.End(
		telemetry.Float("replication_factor", rep.ReplicationFactor),
		telemetry.Int("max_replicas", rep.MaxReplicas),
		telemetry.Float("edge_bias", metrics.Bias(rep.EdgeCounts)))
}

package vcut

import (
	"testing"

	"bpart/internal/telemetry"
)

// instrumentedSchemes returns pointer instances (SetTelemetry has a pointer
// receiver) of every vertex-cut scheme.
func instrumentedSchemes() []Partitioner {
	return []Partitioner{&RandomEdge{}, &DBH{}, &Greedy{}, &HDRF{}}
}

// Every traced scheme must emit one vcut.partition span whose end
// attributes match the assignment's own Report, and fill the registry.
func TestPartitionTelemetry(t *testing.T) {
	g := skewedGraph(t)
	const k = 8
	for _, p := range instrumentedSchemes() {
		tr := telemetry.NewMemory()
		reg := telemetry.NewRegistry()
		in, ok := p.(telemetry.Instrumentable)
		if !ok {
			t.Fatalf("%s does not implement telemetry.Instrumentable", p.Name())
		}
		in.SetTelemetry(tr, reg)

		a, err := p.Partition(g, k)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		rep := NewReport(g, a)

		spans := tr.Find("vcut.partition")
		if len(spans) != 1 {
			t.Fatalf("%s: got %d vcut.partition spans, want 1", p.Name(), len(spans))
		}
		sp := spans[0]
		if got := sp.Attr("scheme"); got != p.Name() {
			t.Fatalf("%s: span scheme attr = %v", p.Name(), got)
		}
		if got := sp.Attr("k"); got != int64(k) {
			t.Fatalf("%s: span k = %v", p.Name(), got)
		}
		if got := sp.Attr("edges"); got != int64(g.NumEdges()) {
			t.Fatalf("%s: span edges = %v, want %d", p.Name(), got, g.NumEdges())
		}
		if got := sp.Attr("replication_factor"); got != rep.ReplicationFactor {
			t.Fatalf("%s: span replication_factor = %v, report says %v", p.Name(), got, rep.ReplicationFactor)
		}
		if got := sp.Attr("max_replicas"); got != int64(rep.MaxReplicas) {
			t.Fatalf("%s: span max_replicas = %v, report says %d", p.Name(), got, rep.MaxReplicas)
		}
		if _, ok := sp.Attr("edge_bias").(float64); !ok {
			t.Fatalf("%s: span edge_bias = %v", p.Name(), sp.Attr("edge_bias"))
		}

		if got := reg.Counter("vcut_partition_total").Value(); got != 1 {
			t.Fatalf("%s: vcut_partition_total = %d, want 1", p.Name(), got)
		}
		if got := reg.Gauge("vcut_partition_replication_factor").Value(); got != rep.ReplicationFactor {
			t.Fatalf("%s: vcut_partition_replication_factor gauge = %v, report says %v", p.Name(), got, rep.ReplicationFactor)
		}
		if got := reg.Counter("vcut_partition_max_replicas_total").Value(); got != int64(rep.MaxReplicas) {
			t.Fatalf("%s: vcut_partition_max_replicas_total = %d, report says %d", p.Name(), got, rep.MaxReplicas)
		}
	}
}

// An uninstrumented scheme must behave identically, and instrumenting must
// not change the assignment.
func TestTelemetryDoesNotChangeResult(t *testing.T) {
	g := skewedGraph(t)
	plain := allSchemes()
	traced := instrumentedSchemes()
	for i := range plain {
		a1, err := plain[i].Partition(g, 8)
		if err != nil {
			t.Fatal(err)
		}
		in := traced[i].(telemetry.Instrumentable)
		in.SetTelemetry(telemetry.NewMemory(), telemetry.NewRegistry())
		a2, err := traced[i].Partition(g, 8)
		if err != nil {
			t.Fatal(err)
		}
		for e := range a1.Parts {
			if a1.Parts[e] != a2.Parts[e] {
				t.Fatalf("%s: arc %d: untraced part %d, traced part %d",
					plain[i].Name(), e, a1.Parts[e], a2.Parts[e])
			}
		}
	}
}

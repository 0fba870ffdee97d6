package partition

import (
	"testing"

	"bpart/internal/graph"
	"bpart/internal/telemetry"
)

// Stream must count placements, cap rejections and fallbacks, emit one
// partition.stream span per call, and a registry teed beside the tracer
// must fold the span's counts.
func TestStreamStats(t *testing.T) {
	g := twitterish(t)
	tr := telemetry.NewMemory()
	reg := telemetry.NewRegistry()
	res, err := Stream(g, StreamOptions{
		K:      8,
		C:      0.5,
		Tracer: telemetry.Tee(tr, reg),
		In:     g.Transpose(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Stats.Placed; got != int64(g.NumVertices()) {
		t.Fatalf("Placed = %d, want %d", got, g.NumVertices())
	}
	spans := tr.Find("partition.stream")
	if len(spans) != 1 {
		t.Fatalf("got %d partition.stream spans, want 1", len(spans))
	}
	sp := spans[0]
	if !sp.Span || sp.Dur < 0 {
		t.Fatalf("stream record is not a closed span: %+v", sp)
	}
	if got := sp.Attr("placed"); got != int64(g.NumVertices()) {
		t.Fatalf("span placed = %v, want %d", got, g.NumVertices())
	}
	if got := sp.Attr("k"); got != int64(8) {
		t.Fatalf("span k = %v", got)
	}
	if got := reg.Counter("partition_stream_placed_total").Value(); got != int64(g.NumVertices()) {
		t.Fatalf("partition_stream_placed_total = %d, want %d", got, g.NumVertices())
	}
}

// Tight hard caps must register as per-dimension cap hits, and a stream
// where every part fills up must count lightest-part fallbacks.
func TestStreamStatsCapHits(t *testing.T) {
	// A 6-vertex path streamed into 2 parts with CapV 2: parts fill and
	// the fallback must fire for the last vertices.
	g := graph.FromAdjacency([][]graph.VertexID{{1}, {2}, {3}, {4}, {5}, {}})
	res, err := Stream(g, StreamOptions{K: 2, C: 1, CapV: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CapVSkips == 0 {
		t.Fatalf("CapVSkips = 0 with CapV=2 over 6 vertices; stats %+v", res.Stats)
	}
	if res.Stats.Fallbacks == 0 {
		t.Fatalf("Fallbacks = 0 though only 4 of 6 vertices fit the caps; stats %+v", res.Stats)
	}

	// An edge cap of one edge per part forces CapE rejections.
	res, err = Stream(g, StreamOptions{K: 4, C: 0.5, CapE: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.CapESkips == 0 {
		t.Fatalf("CapESkips = 0 with CapE=1; stats %+v", res.Stats)
	}
}

// Without telemetry options the stream must not record anything — and the
// stats still come back on the result for callers that want them.
func TestStreamStatsWithoutTelemetry(t *testing.T) {
	g := twitterish(t)
	res, err := Stream(g, StreamOptions{K: 4, C: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Placed != int64(g.NumVertices()) {
		t.Fatalf("Placed = %d without telemetry", res.Stats.Placed)
	}
}

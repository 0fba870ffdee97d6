package telemetry_test

import (
	"bytes"
	"strings"
	"testing"

	"bpart/internal/telemetry"
	"bpart/internal/traceview"
)

func readBack(t *testing.T, trace *telemetry.JSONL, buf *bytes.Buffer) *traceview.Trace {
	t.Helper()
	if err := trace.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := traceview.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// A span written by the trace writer reads back through the one trace
// reader with its resource deltas beside its own attrs, and the span
// table sums them; an event carries no res_* attr and is no row.
func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	trace := telemetry.NewJSONL(&buf)
	sp := trace.Span("partition.stream", telemetry.Int("k", 8))
	waste := make([]byte, 1<<20)
	_ = waste
	sp.End(telemetry.Int("placed", 100))
	trace.Event("cluster.superstep", telemetry.Int("iteration", 0), telemetry.Any("compute", []float64{1, 2}))
	trace.Event("cluster.superstep", telemetry.Int("iteration", 1), telemetry.Any("compute", []float64{1, 2}))
	tr := readBack(t, trace, &buf)
	if tr.Truncated || len(tr.Records) != 3 {
		t.Fatalf("got %d records (truncated %v), want 3", len(tr.Records), tr.Truncated)
	}
	r := &tr.Records[0]
	if r.Type != "span" || r.Name != "partition.stream" || r.DurUS < 0 {
		t.Fatalf("record 0: %+v", r)
	}
	for key, want := range map[string]int{"k": 8, "placed": 100} {
		if got, ok := r.Int(key); !ok || got != want {
			t.Fatalf("attr %q = %v (%v), want %d", key, got, ok, want)
		}
	}
	for _, key := range []string{"res_allocs", "res_alloc_bytes", "res_heap_bytes", "res_gc_cycles", "res_gc_pause_us"} {
		if v, ok := r.Float(key); !ok || v < 0 {
			t.Fatalf("span %s = %v (%v), want a non-negative number", key, v, ok)
		}
	}
	if _, twice := r.Attrs["res_wall_us"]; twice {
		t.Fatal("a span's wall time is written twice")
	}
	for _, ev := range tr.Records[1:] {
		if ev.Type != "event" || ev.Name != "cluster.superstep" {
			t.Fatalf("event not recorded as an event: %+v", ev)
		}
		for key := range ev.Attrs {
			if strings.HasPrefix(key, "res_") {
				t.Fatalf("event carries %s", key)
			}
		}
	}
	sums, err := traceview.SummarizeSpans(tr)
	if err != nil || len(sums) != 1 || sums[0].Name != "partition.stream" {
		t.Fatalf("span table %+v, %v: want the one span", sums, err)
	}
	if sums[0].AllocBytes < 1<<20 || sums[0].TotalUS != r.DurUS {
		t.Fatalf("span row %+v: want the 1 MiB allocation and dur_us as the wall time", sums[0])
	}
}

// Span attrs from Span, Annotate and End all land on the span record,
// beside the resource deltas End appends.
func TestSpanAttrsAccumulate(t *testing.T) {
	var buf bytes.Buffer
	trace := telemetry.NewJSONL(&buf)
	sp := trace.Span("bpart.layer", telemetry.Int("layer", 1))
	sp.Annotate(telemetry.Int("pieces", 16))
	sp.End(telemetry.Int("groups_frozen", 3))
	tr := readBack(t, trace, &buf)
	for key, want := range map[string]int{"layer": 1, "pieces": 16, "groups_frozen": 3} {
		if got, ok := tr.Records[0].Int(key); !ok || got != want {
			t.Fatalf("attr %q = %v (%v), want %d", key, got, ok, want)
		}
	}
	if _, ok := tr.Records[0].Int("res_allocs"); !ok {
		t.Fatal("span without resource deltas")
	}
}

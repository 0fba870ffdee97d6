package resview

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"bpart/internal/core"
	"bpart/internal/gen"
	"bpart/internal/telemetry"
	"bpart/internal/traceview"
)

// A traced BPart run's resource view is its span tree: every phase is a
// span name (the partition, its layers, their streams and the refine
// pass), none is an audit.* event, and the whole partition leads. Event
// laps, each running from the previous event of its name or from the
// start of capture, used to credit one-off events with nearly the run.
func TestBPartTracePhasesAreSpans(t *testing.T) {
	g, err := gen.Preset(gen.TwitterSim, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	trace := telemetry.NewJSONL(&buf)
	b.SetTelemetry(trace, nil)
	if _, err := b.Partition(g, 8); err != nil {
		t.Fatal(err)
	}
	if err := trace.Close(); err != nil {
		t.Fatal(err)
	}
	tr := read(t, buf.String())
	if al, err := tr.Audit(); err != nil || len(al.Decisions) == 0 {
		t.Fatalf("the traced run emitted no audit decisions: %v", err)
	}
	phases, err := Summarize(tr)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range phases {
		names = append(names, p.Phase)
	}
	slices.Sort(names)
	if want := []string{"bpart.layer", "bpart.partition", "bpart.refine", "partition.stream"}; !slices.Equal(names, want) {
		t.Fatalf("resource phases %v, want the run's span names %v", names, want)
	}
	if phases[0].Phase != "bpart.partition" || phases[0].Count != 1 {
		t.Fatalf("largest phase %+v, want the one bpart.partition span", phases[0])
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
	if err := trace.Close(); err != nil {
		t.Fatal(err)
	}
	tr := read(t, buf.String())
	for key, want := range map[string]int{"layer": 1, "pieces": 16, "groups_frozen": 3} {
		if got, ok := tr.Records[0].Int(key); !ok || got != want {
			t.Fatalf("attr %q = %v (%v), want %d", key, got, ok, want)
		}
	}
	if u, err := decode(&tr.Records[0]); err != nil || u == nil {
		t.Fatalf("span without resource deltas: %v, %v", u, err)
	}
}

// A resource log recorded by the commit before the probe became a Tracer
// sink (bpart -timeline -resources plus bench -id "Parallel Speedup"
// -resources, including the since-dropped bpart.combine.round phase and
// the old iter/kind lap attrs), re-encoded once from schema v1 into the
// trace schema with the same numbers, must render byte for byte as the
// commits that still read v1 rendered it (the text as PR 15's `tracestat
// resources` printed it) but for the first table: its heading says the sums are inclusive of nested spans,
// and its rows lost the goroutine column. The log's res_goroutines attrs
// still decode.
// Neither draws speedup curves: benchmark/'s engine.pagerank_speedup is
// the one report of that quantity.
func TestParentRecordedLogRendersIdentically(t *testing.T) {
	tr, err := traceview.ReadFile(filepath.Join("testdata", "parent_pr15.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	const golden = "parent_pr15.report.txt"
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteReport(&got, tr); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%s drifted from the parent's bytes:\n--- got ---\n%s--- want ---\n%s", golden, got.Bytes(), want)
	}
}

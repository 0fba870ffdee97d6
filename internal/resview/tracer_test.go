package resview

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bpart/internal/telemetry"
)

// The probe is a telemetry.Tracer sink: span attrs from Span, Annotate and
// End all land on the span record, an event becomes a lap, and structured
// (Any) payloads — a superstep's per-machine arrays — stay out of the log.
func TestProbeIsTracerSink(t *testing.T) {
	var buf bytes.Buffer
	p := NewProbe(&buf)
	var tr telemetry.Tracer = p
	if !tr.Enabled() {
		t.Fatal("live probe reports disabled")
	}
	sp := tr.Span("bpart.layer", telemetry.Int("layer", 1))
	sp.Annotate(telemetry.Int("pieces", 16))
	sp.End(telemetry.Int("groups_frozen", 3), telemetry.Float("bad", math.NaN()))
	tr.Event("cluster.superstep",
		telemetry.Int("iteration", 0),
		telemetry.Any("compute", []float64{1, 2}),
		telemetry.Any("pairs", [][]int64{{0, 1}, {1, 0}}),
		telemetry.String("phase", "checkpoint"))
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "compute") || strings.Contains(buf.String(), "pairs") {
		t.Fatalf("structured attrs entered the resource log:\n%s", buf.String())
	}
	l, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Records) != 2 {
		t.Fatalf("got %d records, want 2", len(l.Records))
	}
	// The NaN attr is unencodable: the span degrades to an attr-less record
	// instead of failing the log.
	if r := l.Records[0]; r.Kind != KindSpan || r.Phase != "bpart.layer" || len(r.Attrs) != 0 {
		t.Fatalf("degraded span record: %+v", r)
	}
	lap := l.Records[1]
	if lap.Kind != KindLap || lap.Phase != "cluster.superstep" {
		t.Fatalf("lap record: %+v", lap)
	}
	if it, ok := lap.Int("iteration"); !ok || it != 0 {
		t.Fatalf("lap iteration: %v %v", it, ok)
	}
	if s, ok := lap.Str("phase"); !ok || s != "checkpoint" {
		t.Fatalf("lap phase attr: %q %v", s, ok)
	}

	var nilProbe *Probe
	if nilProbe.Enabled() {
		t.Fatal("nil probe reports enabled")
	}
	if telemetry.Tee(nilProbe) != telemetry.Nop() {
		t.Fatal("a nil probe survives Tee")
	}
}

func TestSpanAttrsAccumulate(t *testing.T) {
	var buf bytes.Buffer
	p := NewProbe(&buf)
	sp := p.Span("bpart.layer", telemetry.Int("layer", 1))
	sp.Annotate(telemetry.Int("pieces", 16))
	sp.End(telemetry.Int("groups_frozen", 3))
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]int{"layer": 1, "pieces": 16, "groups_frozen": 3} {
		if got, ok := l.Records[0].Int(key); !ok || got != want {
			t.Fatalf("attr %q = %v (%v), want %d", key, got, ok, want)
		}
	}
}

// A resource log recorded by the commit before the probe became a Tracer
// sink (bpart -timeline -resources plus bench -id "Parallel Speedup"
// -resources, schema v1, including the since-dropped bpart.combine.round
// phase and the old iter/kind lap attrs) must render byte for byte as that
// commit's `tracestat resources` rendered it.
func TestParentRecordedLogRendersIdentically(t *testing.T) {
	l, err := ReadFile(filepath.Join("testdata", "parent_pr15.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "parent_pr15.report.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteReport(&got, l, ReportOptions{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("report drifted from the parent's bytes:\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}

func TestOpenSinks(t *testing.T) {
	dir := t.TempDir()
	tr, closeLogs, err := OpenSinks("", "")
	if err != nil || tr != telemetry.Nop() {
		t.Fatalf("no paths: tracer %T, err %v", tr, err)
	}
	if err := closeLogs(); err != nil {
		t.Fatal(err)
	}

	tracePath, resPath := filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "r.jsonl")
	tr, closeLogs, err = OpenSinks(tracePath, resPath)
	if err != nil {
		t.Fatal(err)
	}
	tr.Span("bench.experiment").End()
	tr.Event("cluster.superstep", telemetry.Int("iteration", 0))
	if err := closeLogs(); err != nil {
		t.Fatal(err)
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(trace), "\n"); n != 2 {
		t.Fatalf("trace has %d lines, want 2:\n%s", n, trace)
	}
	l, err := ReadFile(resPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Records) != 2 || l.Records[0].Kind != KindSpan || l.Records[1].Kind != KindLap {
		t.Fatalf("resource records: %+v", l.Records)
	}

	// The second file failing to open must not leak the first: its handle is
	// closed (the file exists, empty) and no tracer is returned.
	orphan := filepath.Join(dir, "orphan.jsonl")
	if _, _, err := OpenSinks(orphan, filepath.Join(dir, "missing", "r.jsonl")); err == nil {
		t.Fatal("unwritable resource path accepted")
	}
	if _, err := os.Stat(orphan); err != nil {
		t.Fatalf("trace file not created before the failure: %v", err)
	}
}

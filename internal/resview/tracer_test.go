package resview

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bpart/internal/telemetry"
	"bpart/internal/traceview"
)

// The probe is a telemetry.Tracer sink: span attrs from Span, Annotate and
// End all land on the span record, an event carries its lap, and structured
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
	log := read(t, buf.String())
	if len(log.Records) != 2 {
		t.Fatalf("got %d records, want 2", len(log.Records))
	}
	// The NaN attr is unencodable: the inner writer degrades the span to an
	// attr-less error record instead of failing the log.
	if r := log.Records[0]; r.Type != "error" || r.Name != "bpart.layer" || len(r.Attrs) != 0 {
		t.Fatalf("degraded span record: %+v", r)
	}
	lap := log.Records[1]
	if lap.Type != "event" || lap.Name != "cluster.superstep" {
		t.Fatalf("lap record: %+v", lap)
	}
	if it, ok := lap.Int("iteration"); !ok || it != 0 {
		t.Fatalf("lap iteration: %v %v", it, ok)
	}
	if s, ok := lap.Str("phase"); !ok || s != "checkpoint" {
		t.Fatalf("lap phase attr: %q %v", s, ok)
	}
	if s, err := Summarize(log); err != nil || len(s) != 1 || s[0].Phase != "cluster.superstep" {
		t.Fatalf("summary of a log with a degraded record: %+v, %v", s, err)
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
	tr := read(t, buf.String())
	for key, want := range map[string]int{"layer": 1, "pieces": 16, "groups_frozen": 3} {
		if got, ok := tr.Records[0].Int(key); !ok || got != want {
			t.Fatalf("attr %q = %v (%v), want %d", key, got, ok, want)
		}
	}
}

// A resource log recorded by the commit before the probe became a Tracer
// sink (bpart -timeline -resources plus bench -id "Parallel Speedup"
// -resources, including the since-dropped bpart.combine.round phase and
// the old iter/kind lap attrs), re-encoded once from schema v1 into the
// trace schema with the same numbers, must render byte for byte as the
// commits that still read v1 rendered it: the text as PR 15's `tracestat
// resources` printed it, the page as PR 23's `-html` wrote it.
// Neither draws speedup curves: the Parallel Speedup table is the one
// report of that quantity.
func TestParentRecordedLogRendersIdentically(t *testing.T) {
	tr, err := traceview.ReadFile(filepath.Join("testdata", "parent_pr15.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for golden, render := range map[string]func(*bytes.Buffer) error{
		"parent_pr15.report.txt":     func(b *bytes.Buffer) error { return WriteReport(b, tr) },
		"parent_pr15.resources.html": func(b *bytes.Buffer) error { return WriteHTML(b, tr, "bpart runtime resources") },
	} {
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := render(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s drifted from the parent's bytes:\n--- got ---\n%s--- want ---\n%s", golden, got.Bytes(), want)
		}
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
	res, err := traceview.ReadFile(resPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 2 || res.Records[0].Type != "span" || res.Records[1].Type != "event" {
		t.Fatalf("resource records: %+v", res.Records)
	}
	if s, err := Summarize(res); err != nil || len(s) != 2 {
		t.Fatalf("resource file summary: %+v, %v", s, err)
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

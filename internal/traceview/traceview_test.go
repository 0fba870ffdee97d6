package traceview

import (
	"bytes"
	"strings"
	"testing"

	"bpart/internal/telemetry"
)

// A trace written by telemetry.JSONL must round-trip through the reader.
func TestReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	jl := telemetry.NewJSONL(&buf)
	sp := jl.Span("bpart.partition", telemetry.String("scheme", "BPart"), telemetry.Int("k", 8))
	inner := jl.Span("bpart.layer", telemetry.Int("layer", 1))
	inner.End(telemetry.Int("pieces", 16))
	sp.End()
	jl.Event("cap.hit", telemetry.String("dim", "E"))
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}

	tr, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Truncated {
		t.Fatal("clean trace flagged truncated")
	}
	if len(tr.Records) != 3 {
		t.Fatalf("got %d records, want 3", len(tr.Records))
	}
	// JSONL records spans at End, so the inner layer span comes first.
	layers := tr.Spans("bpart.layer")
	if len(layers) != 1 {
		t.Fatalf("got %d bpart.layer spans, want 1", len(layers))
	}
	if v, ok := layers[0].Int("pieces"); !ok || v != 16 {
		t.Fatalf("pieces attr = %v (%v)", v, ok)
	}
	if v, ok := layers[0].Int("layer"); !ok || v != 1 {
		t.Fatalf("layer attr = %v (%v)", v, ok)
	}
	parts := tr.Spans("bpart.partition")
	if len(parts) != 1 {
		t.Fatal("missing bpart.partition span")
	}
	if s, ok := parts[0].Str("scheme"); !ok || s != "BPart" {
		t.Fatalf("scheme attr = %q (%v)", s, ok)
	}
	if parts[0].DurUS <= 0 {
		t.Fatal("span has no duration")
	}
	evs := tr.Events("cap.hit")
	if len(evs) != 1 || evs[0].DurUS != 0 {
		t.Fatalf("events = %v", evs)
	}
}

// A torn final line (crashed writer) is tolerated; the prefix is analyzed.
func TestReadTruncatedFinalLine(t *testing.T) {
	full := `{"ts":"2026-08-06T10:00:00Z","type":"event","name":"a"}
{"ts":"2026-08-06T10:00:01Z","type":"event","name":"b"}
{"ts":"2026-08-06T10:00:02Z","type":"ev`
	tr, err := Read(strings.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Truncated {
		t.Fatal("torn final line not flagged")
	}
	if len(tr.Records) != 2 {
		t.Fatalf("got %d records, want the 2 intact ones", len(tr.Records))
	}
}

// Damage before the final line is a hard error: skipping interior records
// would silently skew every statistic.
func TestReadInteriorDamageRejected(t *testing.T) {
	full := `{"ts":"2026-08-06T10:00:00Z","type":"event","name":"a"}
{"ts":"2026-08-06T10:00:01Z","type":"ev
{"ts":"2026-08-06T10:00:02Z","type":"event","name":"c"}
`
	if _, err := Read(strings.NewReader(full)); err == nil {
		t.Fatal("interior damage accepted")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error does not locate the damage: %v", err)
	}
}

func TestReadRejectsUnknownType(t *testing.T) {
	line := `{"ts":"2026-08-06T10:00:00Z","type":"metric","name":"a"}
{"ts":"2026-08-06T10:00:01Z","type":"event","name":"b"}
`
	if _, err := Read(strings.NewReader(line)); err == nil {
		t.Fatal("unknown record type accepted as interior line")
	}
	// A schema-v1 resource record (the -resources format before it became
	// a trace) has no ts; the error names the format, not the timestamp.
	v1 := `{"v":1,"type":"resource","seq":0,"kind":"span","phase":"a","wall_us":1}` + "\n"
	if _, err := Read(strings.NewReader(v1)); err == nil || !strings.Contains(err.Error(), "re-record with -trace") || strings.Contains(err.Error(), "bad ts") {
		t.Fatalf("schema-v1 resource line: %v", err)
	}
}

// A file whose only line is garbage is not a truncated trace — it is not
// a trace at all, and must be a hard error (cmd/tracestat turns this into
// a non-zero exit instead of silently printing an empty report).
func TestReadAllGarbageRejected(t *testing.T) {
	for _, in := range []string{
		"this is not a trace\n",
		`{"ts":"2026-08-06T10:00:00Z","type":"ev`,
		`{"ts":"bad-time","type":"event","name":"a"}` + "\n",
	} {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("Read(%q) accepted a trace with no usable records", in)
		} else if !strings.Contains(err.Error(), "line 1") {
			t.Errorf("Read(%q) error does not locate the damage: %v", in, err)
		}
	}
}

func TestReadEmptyTrace(t *testing.T) {
	tr, err := Read(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 0 || tr.Truncated {
		t.Fatalf("empty trace = %+v", tr)
	}
	if _, _, ok := tr.Bounds(); ok {
		t.Fatal("empty trace has bounds")
	}
}

func TestRecordSliceAttrs(t *testing.T) {
	full := `{"ts":"2026-08-06T10:00:00Z","type":"event","name":"x","attrs":{"compute":[1.5,2.5],"messages":[3,4],"bad":[1,"two"]}}
`
	tr, err := Read(strings.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	r := &tr.Records[0]
	fs, ok := r.Floats("compute")
	if !ok || len(fs) != 2 || fs[1] != 2.5 {
		t.Fatalf("Floats = %v (%v)", fs, ok)
	}
	is, ok := r.Ints("messages")
	if !ok || is[0] != 3 || is[1] != 4 {
		t.Fatalf("Ints = %v (%v)", is, ok)
	}
	if _, ok := r.Floats("bad"); ok {
		t.Fatal("mixed-type array decoded as floats")
	}
	if _, ok := r.Floats("missing"); ok {
		t.Fatal("missing attr decoded")
	}
}

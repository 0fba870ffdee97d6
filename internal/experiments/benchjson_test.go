package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"bpart/internal/telemetry"
)

// The artifact must round-trip through its own reader and carry the full
// canonical comparison: every scheme, with sane metric ranges.
func TestBenchArtifactRoundTrip(t *testing.T) {
	hist := &HistogramSink{}
	opt := Options{Scale: testScale, Tracer: hist}
	a := NewBenchArtifact(opt)
	a.RecordExperiment("Fig 13", 4, nil)
	a.RecordExperiment("Fig 14", 0, errors.New("boom"))
	if err := a.Collect(opt, hist); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBenchArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.SchemaVersion != BenchSchemaVersion || got.Scale != testScale {
		t.Fatalf("header = %+v", got)
	}
	if len(got.Experiments) != 2 || got.Experiments[1].Error != "boom" {
		t.Fatalf("experiments = %+v", got.Experiments)
	}
	if len(got.Partitions) != len(allSchemes) {
		t.Fatalf("got %d partitions, want %d", len(got.Partitions), len(allSchemes))
	}
	seen := map[string]bool{}
	for _, p := range got.Partitions {
		seen[p.Scheme] = true
		if p.K != benchPartitionK || p.Graph == "" {
			t.Fatalf("partition cell = %+v", p)
		}
		if p.SimTimeUS <= 0 || p.WaitRatio < 0 || p.WaitRatio > 1 {
			t.Fatalf("%s runtime columns = %+v", p.Scheme, p)
		}
		if p.VertexJain <= 0 || p.VertexJain > 1.000001 || p.CutRatio < 0 || p.CutRatio > 1 {
			t.Fatalf("%s quality columns = %+v", p.Scheme, p)
		}
	}
	for _, s := range allSchemes {
		if !seen[s] {
			t.Fatalf("scheme %s missing from partitions", s)
		}
	}
	// The comm section mirrors the canonical walk through the matrix: one
	// cell per scheme, with metrics in their defined ranges.
	if len(got.Comm) != len(allSchemes) {
		t.Fatalf("got %d comm cells, want %d", len(got.Comm), len(allSchemes))
	}
	for _, c := range got.Comm {
		if c.K != benchPartitionK || c.Graph == "" || c.Messages <= 0 {
			t.Fatalf("comm cell = %+v", c)
		}
		if c.ImbalanceRatio < 1 || c.PairJain <= 0 || c.PairJain > 1.000001 {
			t.Fatalf("%s comm metrics = %+v", c.Scheme, c)
		}
		if c.HotSrc == c.HotDst || c.HotShare <= 0 || c.HotShare > 1 {
			t.Fatalf("%s hot pair = %+v", c.Scheme, c)
		}
	}
	// The canonical walk ran through the registry-instrumented engine, so
	// the histogram section must be populated — including the comm_*
	// histograms from the capture-enabled walk.
	if len(got.Histograms) == 0 {
		t.Fatal("no histogram summaries collected")
	}
	foundComm := false
	for _, h := range got.Histograms {
		if h.Name == "comm_pair_batch_messages" {
			foundComm = true
		}
	}
	if !foundComm {
		t.Fatal("comm_pair_batch_messages histogram missing from artifact")
	}
}

// Byte-determinism: identical contents must marshal identically, with the
// schema version leading so consumers can dispatch on it.
func TestBenchArtifactDeterministicEncoding(t *testing.T) {
	opt := Options{Scale: testScale}
	a := NewBenchArtifact(opt)
	a.RecordExperiment("Fig 13", 4, nil)
	if err := a.Collect(opt, nil); err != nil {
		t.Fatal(err)
	}
	var one, two bytes.Buffer
	if err := a.WriteJSON(&one); err != nil {
		t.Fatal(err)
	}
	if err := a.WriteJSON(&two); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(one.Bytes(), two.Bytes()) {
		t.Fatal("two marshals of the same artifact differ")
	}
	head := one.String()[:strings.Index(one.String(), "\n")+1]
	rest := one.String()[len(head):]
	if !strings.Contains(rest[:strings.Index(rest, "\n")], "schema_version") {
		t.Fatalf("schema_version is not the first field:\n%s", one.String()[:200])
	}
	// Empty sections marshal as [] rather than null, so jq-style consumers
	// can iterate unconditionally.
	if strings.Contains(one.String(), "null") {
		t.Fatalf("artifact contains null sections:\n%s", one.String())
	}
}

func TestReadBenchArtifactRejectsWrongVersion(t *testing.T) {
	_, err := ReadBenchArtifact(strings.NewReader(`{"schema_version": 999}`))
	if err == nil || !strings.Contains(err.Error(), "schema version") {
		t.Fatalf("wrong version accepted: %v", err)
	}
	if _, err := ReadBenchArtifact(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Version 1 carried wall-clock fields this reader no longer knows, so
	// it is refused by number; a key the version does not define is not.
	if _, err := ReadBenchArtifact(strings.NewReader(`{"schema_version": 1}`)); err == nil {
		t.Fatal("schema version 1 accepted")
	}
	extra := `{"schema_version": 2, "parallel": [{"engine": "CC", "workers": 2, "identical": true}]}`
	if _, err := ReadBenchArtifact(strings.NewReader(extra)); err != nil {
		t.Fatalf("artifact with an unknown section: %v", err)
	}
}

// Threading the Tracer through Options must reach the engines: a traced
// experiment run emits superstep events, and every sink teed into the
// tracer sees them.
func TestOptionsTelemetryReachesEngines(t *testing.T) {
	mem := telemetry.NewMemory()
	reg := telemetry.NewRegistry()
	hist := &HistogramSink{}
	opt := Options{Scale: testScale, Tracer: telemetry.Tee(mem, reg, hist)}
	if _, err := Fig13(opt); err != nil {
		t.Fatal(err)
	}
	steps := len(mem.Find("cluster.superstep"))
	if steps == 0 {
		t.Fatal("traced Fig 13 run emitted no cluster.superstep records")
	}
	if got := reg.Counter("cluster_superstep_total").Value(); got != int64(steps) {
		t.Fatalf("cluster_superstep_total = %d, want %d", got, steps)
	}
	var got int64 = -1
	for _, h := range hist.Summaries() {
		if h.Name == "cluster_superstep_time_us" {
			got = h.Count
		}
	}
	if got != int64(steps) {
		t.Fatalf("cluster_superstep_time_us has %d samples, want %d", got, steps)
	}
}

// json.Marshal of the artifact must stay a flat, versioned object — guard
// the wire shape a consumer greps for.
func TestBenchArtifactWireShape(t *testing.T) {
	a := NewBenchArtifact(Options{Scale: 1})
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema_version", "scale", "experiments", "partitions", "comm", "serving", "histograms"} {
		if _, ok := m[key]; !ok {
			t.Errorf("artifact missing %q key", key)
		}
	}
}

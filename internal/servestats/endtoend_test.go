package servestats

import (
	"strings"
	"testing"

	"bpart/internal/core"
	"bpart/internal/gen"
	"bpart/internal/telemetry"
)

// The serving path end to end, as cmd/bpartd and cmd/loadgen drive it: a
// BPart assignment behind a backend, a recorded replay of a seeded Zipf
// workload, and the request log read back, summarized and attributed to
// the assignment's parts.
func TestServingEndToEnd(t *testing.T) {
	g, err := gen.Preset(gen.TwitterSim, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBackend(g, a.Parts, a.K)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	rec := NewRecorder(a.K, &buf, telemetry.NewRegistry())
	srv := &Server{B: b, R: rec}
	reqs, err := Workload{Seed: 7, Vertices: g.NumVertices(), Requests: 50, ZipfS: 1.1, LookupW: 1}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Play(reqs); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := Read(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	rep := Summarize(l)
	if rep.Total != 50 || rep.Routed != 50 {
		t.Fatalf("report = %+v", rep)
	}
	attrib, err := Attribute(l, a.Parts, a.K, 1)
	if err != nil {
		t.Fatal(err)
	}
	var routed int64
	for _, at := range attrib {
		routed += at.Requests
	}
	if routed != 50 {
		t.Fatalf("attribution covers %d of 50 requests", routed)
	}
}

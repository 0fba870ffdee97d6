package partaudit

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"bpart/internal/graph"
)

func TestConfigNormalize(t *testing.T) {
	var c Config
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	if c.SampleEvery != 64 || c.Hubs != 16 || c.Window != 1024 {
		t.Fatalf("defaults wrong: %+v", c)
	}
	for _, bad := range []Config{
		{SampleEvery: -1}, {Hubs: -1}, {Window: -2},
	} {
		cfg := bad
		if err := cfg.Normalize(); err == nil {
			t.Fatalf("negative config accepted: %+v", bad)
		}
	}
	if _, err := New(&bytes.Buffer{}, Config{Window: -1}); err == nil {
		t.Fatal("New accepted a negative config")
	}
}

// Every exported entry point must be a no-op on a nil receiver, so
// partitioners carry an unconditional audit sink.
func TestNilSafety(t *testing.T) {
	var a *Auditor
	g := pathGraph(t)
	a.Begin("X", g, 4)
	a.Combine(Merge{})
	a.Layer(LayerRecord{})
	a.Final(Final{})
	if err := a.Flush(); err != nil {
		t.Fatalf("nil Auditor Flush = %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("nil Auditor Close = %v", err)
	}

	r := a.Stream(0, g, 4)
	if r != nil {
		t.Fatal("nil Auditor Stream returned a recorder")
	}
	if d := r.SampleDecision(0, 3); d != nil {
		t.Fatal("nil StreamRecorder sampled a decision")
	}
	r.Place(0, 3, 1, CauseGreedy, nil, nil)
	r.End()

	var d *Decision
	d.Candidate(0, 1, 0.5, 0.5, "")
	if _, ok := d.Chosen(); ok {
		t.Fatal("nil Decision has a chosen candidate")
	}
}

// pathGraph returns the directed path 0→1→2→3.
func pathGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	return b.Build()
}

// The stream recorder must resolve each arc exactly once — when its second
// endpoint is placed — and count cut arcs incrementally.
func TestStreamWindowAccounting(t *testing.T) {
	g := pathGraph(t)
	var buf bytes.Buffer
	a, err := New(&buf, Config{SampleEvery: 1000, Hubs: 0, Window: 2})
	if err != nil {
		t.Fatal(err)
	}
	a.Begin("Test", g, 2)
	r := a.Stream(0, g, 2)
	parts := []int{-1, -1, -1, -1}
	// Pieces: 0,1 → piece 0; 2,3 → piece 1. Cut arc: 1→2.
	for v, piece := range []int{0, 0, 1, 1} {
		parts[v] = piece
		r.Place(graph.VertexID(v), g.OutDegree(graph.VertexID(v)), piece, CauseGreedy, nil, parts)
	}
	r.End()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	log, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Windows) != 2 {
		t.Fatalf("got %d windows, want 2 (window size 2, 4 placements)", len(log.Windows))
	}
	w0, w1 := log.Windows[0], log.Windows[1]
	// After 0,1: arc 0→1 resolved, not cut.
	if w0.Placed != 2 || w0.ResolvedArcs != 1 || w0.CutArcs != 0 {
		t.Fatalf("window 0 = %+v", w0)
	}
	// After all four: all 3 arcs resolved, 1→2 cut.
	if w1.Placed != 4 || w1.ResolvedArcs != 3 || w1.CutArcs != 1 {
		t.Fatalf("window 1 = %+v", w1)
	}
	if got := w1.CutRatio; got != 1.0/3.0 {
		t.Fatalf("final cut ratio = %v, want 1/3", got)
	}
	if w1.PieceV[0] != 2 || w1.PieceV[1] != 2 {
		t.Fatalf("final PieceV = %v", w1.PieceV)
	}
	// PieceE is out-degree mass: 0,1 carry 1+1; 2,3 carry 1+0.
	if w1.PieceE[0] != 2 || w1.PieceE[1] != 1 {
		t.Fatalf("final PieceE = %v", w1.PieceE)
	}
	// End() after a full window must not emit a duplicate trailing window.
	if w1.Index != 1 {
		t.Fatalf("final window index = %d, want 1", w1.Index)
	}
}

// A self-loop must resolve exactly once (in the out-scan).
func TestStreamSelfLoopResolvesOnce(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	g := b.Build()
	var buf bytes.Buffer
	a, err := New(&buf, Config{SampleEvery: 1000, Hubs: 0, Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	a.Begin("Test", g, 2)
	r := a.Stream(0, g, 2)
	parts := []int{-1, -1}
	parts[0] = 0
	r.Place(0, 2, 0, CauseGreedy, nil, parts)
	parts[1] = 1
	r.Place(1, 0, 1, CauseGreedy, nil, parts)
	r.End()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	last := log.Windows[len(log.Windows)-1]
	if last.ResolvedArcs != g.NumEdges() {
		t.Fatalf("resolved %d arcs, graph has %d", last.ResolvedArcs, g.NumEdges())
	}
	if last.CutArcs != 1 { // only 0→1 crosses
		t.Fatalf("cut arcs = %d, want 1", last.CutArcs)
	}
}

func TestRunnerUp(t *testing.T) {
	cands := []Candidate{
		{Piece: 0, Score: 2.0},
		{Piece: 1, Score: 3.0},
		{Piece: 2, Score: 2.5},
		{Piece: 3, Score: 9.9, Skip: SkipCapV}, // ineligible, must not win
	}
	piece, gap := runnerUp(cands, 1)
	if piece != 2 || gap != 0.5 {
		t.Fatalf("runnerUp = (%d, %v), want (2, 0.5)", piece, gap)
	}
	// Chosen is the only eligible candidate.
	piece, _ = runnerUp([]Candidate{{Piece: 0, Score: 1}}, 0)
	if piece != -1 {
		t.Fatalf("sole candidate runner-up = %d, want -1", piece)
	}
	// Chosen not in the table (fallback with every part skipped).
	piece, _ = runnerUp([]Candidate{{Piece: 0, Score: 1, Skip: SkipCapW}}, 2)
	if piece != -1 {
		t.Fatalf("fallback runner-up = %d, want -1", piece)
	}
}

func TestDecisionSampling(t *testing.T) {
	// 8 vertices: vertex 7 has out-degree 3 (the hub), the rest ≤ 1.
	b := graph.NewBuilder(8)
	b.AddEdge(7, 0)
	b.AddEdge(7, 1)
	b.AddEdge(7, 2)
	b.AddEdge(0, 1)
	g := b.Build()
	var buf bytes.Buffer
	a, err := New(&buf, Config{SampleEvery: 4, Hubs: 1, Window: 100})
	if err != nil {
		t.Fatal(err)
	}
	a.Begin("Test", g, 2)
	if a.hubDeg != 3 {
		t.Fatalf("hub degree = %d, want 3", a.hubDeg)
	}
	r := a.Stream(0, g, 2)
	parts := make([]int, 8)
	for v := 0; v < 8; v++ {
		d := g.OutDegree(graph.VertexID(v))
		dec := r.SampleDecision(graph.VertexID(v), d)
		// Positions 0 and 4 sample by cadence; vertex 7 samples as a hub.
		wantSampled := v%4 == 0 || v == 7
		if (dec != nil) != wantSampled {
			t.Fatalf("vertex %d: sampled = %v, want %v", v, dec != nil, wantSampled)
		}
		dec.Candidate(0, 0, 0, 0, "")
		parts[v] = 0
		r.Place(graph.VertexID(v), d, 0, CauseGreedy, dec, parts)
	}
	r.End()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	log, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(log.Decisions) != 3 {
		t.Fatalf("got %d decisions, want 3 (pos 0, pos 4, hub 7)", len(log.Decisions))
	}
	if hub := log.DecisionsFor(7); len(hub) != 1 || hub[0].Degree != 3 {
		t.Fatalf("hub decision = %+v", hub)
	}
}

// The reader must tolerate a torn final line (crashed run) but reject
// interior damage.
func TestReadLogTornFinalLine(t *testing.T) {
	valid := `{"type":"audit_header","version":1,"scheme":"X","k":2,"n":4,"m":3,"sample_every":64,"hubs":16,"hub_degree":5,"window":1024}
{"type":"window","layer":0,"index":0,"placed":4,"piece_v":[2,2],"piece_e":[2,1],"v_bias":0,"e_bias":0.3,"cut_ratio":0.5,"resolved_arcs":2,"cut_arcs":1}
`
	log, err := ReadLog(strings.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	if log.Truncated || log.Header == nil || len(log.Windows) != 1 {
		t.Fatalf("clean log parsed wrong: truncated=%v header=%v windows=%d",
			log.Truncated, log.Header, len(log.Windows))
	}

	torn := valid + `{"type":"win`
	log, err = ReadLog(strings.NewReader(torn))
	if err != nil {
		t.Fatalf("torn final line rejected: %v", err)
	}
	if !log.Truncated {
		t.Fatal("torn final line not flagged")
	}
	if log.Header == nil || len(log.Windows) != 1 {
		t.Fatal("intact prefix lost on torn final line")
	}

	interior := `{"type":"win` + "\n" + valid
	if _, err := ReadLog(strings.NewReader(interior)); err == nil {
		t.Fatal("interior damage accepted")
	}

	unknownFinal := valid + `{"type":"mystery"}`
	log, err = ReadLog(strings.NewReader(unknownFinal))
	if err != nil || !log.Truncated {
		t.Fatalf("unknown final record: err=%v truncated=%v", err, log != nil && log.Truncated)
	}
}

// A file whose only line is garbage is not a truncated audit log — it is
// not an audit log at all, and must be a hard error (the CLIs turn this
// into a non-zero exit instead of silently printing nothing).
func TestReadLogAllGarbage(t *testing.T) {
	for _, in := range []string{
		"this is not an audit log\n",
		`{"type":"win`,
		`{"not":"typed"}` + "\n",
	} {
		if _, err := ReadLog(strings.NewReader(in)); err == nil {
			t.Errorf("ReadLog(%q) accepted a log with no usable records", in)
		}
	}
	// The genuinely empty file stays fine: a run that wrote nothing yet.
	log, err := ReadLog(strings.NewReader(""))
	if err != nil || log.Truncated {
		t.Fatalf("empty input: err=%v truncated=%v", err, log != nil && log.Truncated)
	}
}

func TestReadLogVersionMismatch(t *testing.T) {
	in := `{"type":"audit_header","version":99}
{"type":"window","layer":0,"index":0,"placed":1,"piece_v":[1],"piece_e":[0],"v_bias":0,"e_bias":0,"cut_ratio":0,"resolved_arcs":0,"cut_arcs":0}
`
	_, err := ReadLog(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "unsupported audit schema version") {
		t.Fatalf("version mismatch error = %v", err)
	}
}

func TestLogHelpers(t *testing.T) {
	l := &Log{
		Windows: []Window{
			{Layer: 1, Index: 0}, {Layer: 1, Index: 1}, {Layer: 2, Index: 0},
		},
		Layers: []LayerRecord{{
			Layer:  1,
			Pieces: 4,
			Groups: []LayerGroup{
				{Pieces: []int{0, 3}, Final: 0},
				{Pieces: []int{1, 2}, Final: -1},
			},
		}},
	}
	if w, ok := l.LastWindow(1); !ok || w.Index != 1 {
		t.Fatalf("LastWindow(1) = %+v, %v", w, ok)
	}
	if _, ok := l.LastWindow(9); ok {
		t.Fatal("LastWindow(9) found a window")
	}
	m, ok := l.PieceToPart(1)
	if !ok {
		t.Fatal("PieceToPart(1) missing")
	}
	want := []int{0, -1, -1, 0}
	for i := range want {
		if m[i] != want[i] {
			t.Fatalf("PieceToPart(1) = %v, want %v", m, want)
		}
	}
	if _, ok := l.PieceToPart(5); ok {
		t.Fatal("PieceToPart(5) found a layer")
	}
}

type failWriter struct{ err error }

func (f failWriter) Write([]byte) (int, error) { return 0, f.err }

// A failing sink must surface its first error through Flush/Close, never
// silently drop records.
func TestStickyWriteError(t *testing.T) {
	wantErr := errors.New("disk full")
	a, err := New(failWriter{wantErr}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	a.Final(Final{K: 1})
	if err := a.Flush(); !errors.Is(err, wantErr) {
		t.Fatalf("Flush = %v, want %v", err, wantErr)
	}
	if err := a.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("Close = %v, want %v (sticky)", err, wantErr)
	}
}

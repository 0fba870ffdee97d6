package partaudit

import (
	"errors"
	"testing"

	"bpart/internal/graph"
	"bpart/internal/telemetry"
)

// traced returns a Memory tracer and a function that decodes the audit
// events it recorded. (The read path through a JSONL trace and
// traceview is the external tests'.)
func traced(t testing.TB) (*telemetry.Memory, func() *Audit) {
	t.Helper()
	m := telemetry.NewMemory()
	return m, func() *Audit {
		t.Helper()
		a := &Audit{}
		for _, r := range m.Records() {
			attrs := map[string]any{}
			for _, at := range r.Attrs {
				attrs[at.Key] = at.Value()
			}
			if err := a.Add(r.Name, attrs); err != nil {
				t.Fatal(err)
			}
		}
		return a
	}
}

// Every recorder method must be a no-op on a nil receiver, and a disabled
// tracer gets the nil recorder, so the streaming loops carry one
// unconditionally.
func TestNilSafety(t *testing.T) {
	g := pathGraph(t)
	Emit(nil, Final{})
	Emit(telemetry.Nop(), Final{})
	r := NewStream(telemetry.Nop(), g, 4)
	if r != nil {
		t.Fatal("a disabled tracer got a recorder")
	}
	if r = NewStream(nil, g, 4); r != nil {
		t.Fatal("a nil tracer got a recorder")
	}
	if d := r.SampleDecision(0, 3); d != nil {
		t.Fatal("nil StreamRecorder sampled a decision")
	}
	r.Place(0, 3, 1, CauseGreedy, nil, nil)
	r.End()

	var d *Decision
	d.Candidate(0, 1, 0.5, 0.5, "")
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
	tr, read := traced(t)
	r := NewStream(tr, g, 2)
	r.every, r.hubDeg, r.window = 1000, 1000, 2
	parts := []int{-1, -1, -1, -1}
	// Pieces: 0,1 → piece 0; 2,3 → piece 1. Cut arc: 1→2.
	for v, piece := range []int{0, 0, 1, 1} {
		parts[v] = piece
		r.Place(graph.VertexID(v), g.OutDegree(graph.VertexID(v)), piece, CauseGreedy, nil, parts)
	}
	r.End()

	log := read()
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

// A pass that placed nothing ends with no window: a traced LDG over an
// empty graph records what an empty Stream pass records, nothing.
func TestEmptyStreamEmitsNoWindow(t *testing.T) {
	tr, read := traced(t)
	NewStream(tr, graph.NewBuilder(0).Build(), 4).End()
	if log := read(); len(log.Windows) != 0 {
		t.Fatalf("an empty pass emitted %d windows: %+v", len(log.Windows), log.Windows)
	}
}

// A self-loop must resolve exactly once (in the out-scan).
func TestStreamSelfLoopResolvesOnce(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddEdge(0, 0)
	b.AddEdge(0, 1)
	g := b.Build()
	tr, read := traced(t)
	r := NewStream(tr, g, 2)
	r.every, r.hubDeg, r.window = 1000, 1000, 1
	parts := []int{-1, -1}
	parts[0] = 0
	r.Place(0, 2, 0, CauseGreedy, nil, parts)
	parts[1] = 1
	r.Place(1, 0, 1, CauseGreedy, nil, parts)
	r.End()
	log := read()
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
	if h := NewHeader("Test", g, 2); h.HubDegree != 1 || h.SampleEvery != 64 || h.Hubs != 16 || h.Window != 1024 {
		t.Fatalf("header = %+v: 16 hubs of 8 vertices take every degree >= 1", h)
	}
	tr, read := traced(t)
	r := NewStream(tr, g, 2)
	r.every, r.hubDeg = 4, hubDegree(g, 1)
	if r.hubDeg != 3 {
		t.Fatalf("hub degree = %d, want 3", r.hubDeg)
	}
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
	log := read()
	if len(log.Decisions) != 3 {
		t.Fatalf("got %d decisions, want 3 (pos 0, pos 4, hub 7)", len(log.Decisions))
	}
	if hub := log.Decisions[2]; hub.Vertex != 7 || hub.Degree != 3 || len(hub.Cands) != 1 {
		t.Fatalf("hub decision = %+v", hub)
	}
}

type failWriter struct{ err error }

func (f failWriter) Write([]byte) (int, error) { return 0, f.err }

// A failing sink must surface its first error through Flush/Close, never
// silently drop audit records.
func TestStickyWriteError(t *testing.T) {
	wantErr := errors.New("disk full")
	tr := telemetry.NewJSONL(failWriter{wantErr})
	Emit(tr, Final{K: 1})
	if err := tr.Flush(); !errors.Is(err, wantErr) {
		t.Fatalf("Flush = %v, want %v", err, wantErr)
	}
	if err := tr.Close(); !errors.Is(err, wantErr) {
		t.Fatalf("Close = %v, want %v (sticky)", err, wantErr)
	}
}

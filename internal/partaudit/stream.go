package partaudit

import (
	"bpart/internal/graph"
	"bpart/internal/metrics"
	"bpart/internal/telemetry"
)

// StreamRecorder audits one streaming pass: it samples placement
// decisions and maintains the windowed quality timeline. It is not safe
// for concurrent use — the streaming loop it instruments is sequential by
// construction.
//
// A nil *StreamRecorder is a valid no-op on every method, so the
// streaming engine carries one unconditionally.
type StreamRecorder struct {
	tr telemetry.Tracer
	g  *graph.Graph
	in *graph.Graph // g.In(); arcs arriving at v

	// The sampling rule: the package constants, set per recorder so the
	// package's own tests can shrink them.
	every, window, hubDeg int

	placed    int
	windowIdx int
	pieceV    []int
	pieceE    []int
	// resolved/cut count arcs whose both endpoints are placed; at the end
	// of a full-graph stream resolved == |E| and cut == CountCrossEdges.
	resolved int
	cut      int

	dec Decision // scratch reused across sampled placements
}

// NewStream starts auditing one streaming pass over k initially empty
// pieces into tr, or returns nil, the no-op recorder, when tr is disabled.
// The cut timeline reads g's reverse, g.In(): it needs arcs in both
// directions to resolve each arc exactly once, when its second endpoint is
// placed.
func NewStream(tr telemetry.Tracer, g *graph.Graph, k int) *StreamRecorder {
	if tr == nil || !tr.Enabled() {
		return nil
	}
	return &StreamRecorder{
		tr:     tr,
		g:      g,
		in:     g.In(),
		every:  sampleEvery,
		window: windowSize,
		hubDeg: hubDegree(g, hubs),
		pieceV: make([]int, k),
		pieceE: make([]int, k),
	}
}

// SampleDecision returns a Decision scratch when this placement is
// sampled — every 64th position of the stream, plus every vertex at or
// above the hub out-degree threshold — and nil otherwise.
// The caller fills the score table via Decision.Candidate and hands the
// scratch back to Place.
func (r *StreamRecorder) SampleDecision(v graph.VertexID, degree int) *Decision {
	if r == nil {
		return nil
	}
	if r.placed%r.every != 0 && degree < r.hubDeg {
		return nil
	}
	d := &r.dec
	d.Pos = r.placed
	d.Vertex = int(v)
	d.Degree = degree
	d.Piece = -1
	d.Cause = ""
	d.RunnerUp = -1
	d.Gap = 0
	d.Cands = nil // the emitted event keeps the previous table
	return d
}

// Place records that v (with the given out-degree) was assigned to piece.
// cause is one of the Cause* constants; dec is the scratch returned by
// SampleDecision for this vertex (nil when the placement was not
// sampled); parts is the assignment-so-far (parts[v] already set), used
// for incremental cut accounting. Cost is O(deg(v)) per placement.
func (r *StreamRecorder) Place(v graph.VertexID, degree, piece int, cause string, dec *Decision, parts []int) {
	if r == nil {
		return
	}
	if dec != nil {
		dec.Piece = piece
		dec.Cause = cause
		dec.RunnerUp, dec.Gap = runnerUp(dec.Cands, piece)
		Emit(r.tr, *dec)
	}
	r.pieceV[piece]++
	r.pieceE[piece] += degree
	// An arc is resolved when its second endpoint is placed: outgoing
	// arcs whose target is already placed, plus incoming arcs whose
	// source is already placed. Self-loops resolve in the out-scan alone
	// (parts[v] is already set), so the in-scan skips them.
	for _, u := range r.g.Neighbors(v) {
		if p := parts[u]; p >= 0 {
			r.resolved++
			if p != piece {
				r.cut++
			}
		}
	}
	for _, u := range r.in.Neighbors(v) {
		if u == v {
			continue
		}
		if p := parts[u]; p >= 0 {
			r.resolved++
			if p != piece {
				r.cut++
			}
		}
	}
	r.placed++
	if r.placed%r.window == 0 {
		r.emitWindow()
	}
}

// End closes the stream's timeline, emitting the trailing partial window
// (the final snapshot, when the stream length is not a multiple of the
// window size). A pass that placed nothing has no window, as an empty
// pass of the streaming engine records nothing.
func (r *StreamRecorder) End() {
	if r == nil {
		return
	}
	if r.placed%r.window != 0 {
		r.emitWindow()
	}
}

func (r *StreamRecorder) emitWindow() {
	cutRatio := 0.0
	if r.resolved > 0 {
		cutRatio = float64(r.cut) / float64(r.resolved)
	}
	Emit(r.tr, Window{
		Index:        r.windowIdx,
		Placed:       r.placed,
		PieceV:       append([]int(nil), r.pieceV...),
		PieceE:       append([]int(nil), r.pieceE...),
		VBias:        metrics.Bias(r.pieceV),
		EBias:        metrics.Bias(r.pieceE),
		CutRatio:     cutRatio,
		ResolvedArcs: r.resolved,
		CutArcs:      r.cut,
	})
	r.windowIdx++
}

// runnerUp returns the best-scoring eligible candidate other than chosen,
// and the score gap to it.
func runnerUp(cands []Candidate, chosen int) (piece int, gap float64) {
	var chosenScore float64
	haveChosen := false
	for _, c := range cands {
		if c.Piece == chosen {
			chosenScore = c.Score
			haveChosen = true
			break
		}
	}
	best := -1
	var bestScore float64
	for _, c := range cands {
		if c.Piece == chosen || c.Skip != "" {
			continue
		}
		if best == -1 || c.Score > bestScore {
			best, bestScore = c.Piece, c.Score
		}
	}
	if best == -1 || !haveChosen {
		return -1, 0
	}
	return best, chosenScore - bestScore
}

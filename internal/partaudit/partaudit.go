// Package partaudit is the decision side of the partitioner's trace: where
// the spans answer "how long did each phase take", the audit.* events
// answer "why did the partitioner do what it did".
//
// BPart, Fennel and LDG emit them on the tracer they already hold
// (SetTelemetry), whenever it is Enabled:
//
//   - audit.header opens a run: scheme, k, |V|, |E| and the sampling rule.
//   - audit.decision is a sampled streaming placement (every 64th stream
//     position, plus every placement of the 16 top-out-degree hubs) with
//     the full per-candidate score decomposition: the neighbor-affinity
//     term, the balance-penalty term, the capacity-skip reason and the
//     runner-up gap. These are the per-decision quantities behind the
//     paper's Eq. 2 scoring.
//   - audit.window is a snapshot every 1024 placements of the per-piece
//     |V_i|/|E_i|, the vertex/edge bias and the cut ratio over the arcs
//     resolved so far. The final snapshot of a full-graph stream
//     reproduces metrics.NewReport exactly (tested).
//   - audit.combine and audit.layer are, per BPart layer, which pieces
//     were paired in each round (vertex-lightest with vertex-heaviest, the
//     paper's inverse-proportionality rationale), every group's
//     per-dimension deviation and freeze outcome.
//   - audit.final closes a run with its quality report and, for BPart,
//     the predicted-vs-actual per-part balance.
//
// Each event's attrs are the fields of one record shape below (Emit), so
// Audit.Add turns one back into its record, traceview's Trace.Audit does so
// for every audit.* event of a trace, and the renderers (tracestat
// explain, timeline, combine) read the result. The package imports no
// reader: the partitioners that emit the events link none.
package partaudit

import (
	"math"
	"reflect"
	"sort"
	"strings"

	"bpart/internal/graph"
	"bpart/internal/telemetry"
)

// The sampling rule, recorded in every header.
const (
	// sampleEvery records the full score decomposition of every Nth
	// placement of each stream.
	sampleEvery = 64
	// hubs always records the placements of the hubs highest-out-degree
	// vertices: hub placements are the ones the edge-balance claims hinge
	// on.
	hubs = 16
	// windowSize is the timeline snapshot cadence in placed vertices.
	windowSize = 1024
)

// Placement causes recorded on decision records.
const (
	// CauseGreedy marks a clean argmax placement.
	CauseGreedy = "greedy"
	// CauseTieBreak marks a score tie resolved by picking the lighter part.
	CauseTieBreak = "tie_break"
	// CauseFallback marks the all-parts-full lightest-part fallback.
	CauseFallback = "fallback"
)

// Capacity-skip reasons recorded on candidate rows.
const (
	// SkipCapW marks a candidate rejected by the W_i slack cap.
	SkipCapW = "cap_w"
	// SkipCapV marks a candidate rejected by the hard |V_i| cap.
	SkipCapV = "cap_v"
	// SkipCapE marks a candidate rejected by the hard |E_i| cap.
	SkipCapE = "cap_e"
)

// The event names, one per record shape.
const (
	eventHeader   = "audit.header"
	eventDecision = "audit.decision"
	eventWindow   = "audit.window"
	eventCombine  = "audit.combine"
	eventLayer    = "audit.layer"
	eventFinal    = "audit.final"
)

// Header opens the audit of one partitioning run.
type Header struct {
	Scheme      string `json:"scheme"`
	K           int    `json:"k"`
	Vertices    int    `json:"n"`
	Edges       int    `json:"m"`
	SampleEvery int    `json:"sample_every"`
	Hubs        int    `json:"hubs"`
	HubDegree   int    `json:"hub_degree"` // min out-degree that forces sampling
	Window      int    `json:"window"`
}

// NewHeader returns the header of one run of scheme over g into k parts.
// It costs a pass over the vertices, for the hub degree.
func NewHeader(scheme string, g *graph.Graph, k int) Header {
	return Header{
		Scheme:      scheme,
		K:           k,
		Vertices:    g.NumVertices(),
		Edges:       g.NumEdges(),
		SampleEvery: sampleEvery,
		Hubs:        hubs,
		HubDegree:   hubDegree(g, hubs),
		Window:      windowSize,
	}
}

// hubDegree is the h-th largest out-degree of g, at least 1 so that
// isolated vertices are never hub-sampled; with no vertex it is MaxInt.
func hubDegree(g *graph.Graph, h int) int {
	n := g.NumVertices()
	if n == 0 {
		return math.MaxInt
	}
	degs := make([]int, n)
	for v := range degs {
		degs[v] = g.OutDegree(graph.VertexID(v))
	}
	sort.Ints(degs)
	return max(degs[n-min(h, n)], 1)
}

// Candidate is one row of a decision's score table: how one piece scored
// for the vertex being placed, decomposed into the affinity and penalty
// terms of Eq. 2 (Score = Affinity − Penalty), or why it was ineligible.
type Candidate struct {
	Piece    int     `json:"piece"`
	Affinity int     `json:"aff"`
	Penalty  float64 `json:"pen"`
	Score    float64 `json:"score"`
	// Skip is the capacity reason this piece was ineligible ("" = eligible).
	Skip string `json:"skip,omitempty"`
}

// Decision records one sampled streaming placement with its full score
// decomposition.
type Decision struct {
	// Layer is the BPart over-split layer of the stream. The recorder
	// leaves it 0, so Emit omits it, and BPart binds it to the stream's
	// tracer with telemetry.With; single-phase schemes bind none.
	Layer  int    `json:"layer,omitempty"`
	Pos    int    `json:"pos"` // position in this layer's stream
	Vertex int    `json:"vertex"`
	Degree int    `json:"degree"`
	Piece  int    `json:"piece"` // the piece actually chosen
	Cause  string `json:"cause"`
	// RunnerUp is the best-scoring eligible piece other than the chosen
	// one (-1 if the chosen piece was the only eligible candidate).
	RunnerUp int `json:"runner_up"`
	// Gap is the chosen score minus the runner-up score.
	Gap   float64     `json:"gap"`
	Cands []Candidate `json:"cands"`
}

// Candidate appends one score-table row; nil-safe so uninstrumented loops
// can call it unconditionally.
func (d *Decision) Candidate(piece, affinity int, penalty, score float64, skip string) {
	if d == nil {
		return
	}
	d.Cands = append(d.Cands, Candidate{
		Piece: piece, Affinity: affinity, Penalty: penalty, Score: score, Skip: skip,
	})
}

// Window is one streaming quality snapshot: the per-piece sizes and
// quality metrics after Placed vertices of one stream.
type Window struct {
	// Layer is bound like Decision.Layer.
	Layer  int   `json:"layer,omitempty"`
	Index  int   `json:"index"`
	Placed int   `json:"placed"`
	PieceV []int `json:"piece_v"`
	PieceE []int `json:"piece_e"`
	// VBias and EBias are metrics.Bias over PieceV/PieceE.
	VBias float64 `json:"v_bias"`
	EBias float64 `json:"e_bias"`
	// CutRatio is CutArcs/ResolvedArcs; an arc is resolved once both its
	// endpoints are placed, so the final window of a full-graph stream
	// has ResolvedArcs = |E| and CutRatio equal to the Report's.
	CutRatio     float64 `json:"cut_ratio"`
	ResolvedArcs int     `json:"resolved_arcs"`
	CutArcs      int     `json:"cut_arcs"`
}

// Merge records one pairing of a combining round: the vertex-lightest
// group A (which, by the paper's inverse proportionality, is the
// edge-heaviest) merged with the vertex-heaviest group B.
type Merge struct {
	Layer   int   `json:"layer"`
	Round   int   `json:"round"`
	APieces []int `json:"a_pieces"`
	AV      int   `json:"a_v"`
	AE      int   `json:"a_e"`
	BPieces []int `json:"b_pieces"`
	BV      int   `json:"b_v"`
	BE      int   `json:"b_e"`
}

// LayerGroup is one combined group at the end of a layer's rounds: its
// pieces, sizes, per-dimension deviation from the global per-part targets,
// and whether it froze into a final part.
type LayerGroup struct {
	Pieces []int `json:"pieces"`
	V      int   `json:"v"`
	E      int   `json:"e"`
	// VDev and EDev are |size − target|/target, the quantities the ε
	// freeze test compares.
	VDev float64 `json:"v_dev"`
	EDev float64 `json:"e_dev"`
	// Final is the final part id this group froze into, or -1 if it was
	// dissolved into the next layer.
	Final int `json:"final"`
}

// LayerRecord is the combining outcome of one layer.
type LayerRecord struct {
	Layer   int          `json:"layer"`
	Pieces  int          `json:"pieces"`
	TargetV float64      `json:"target_v"`
	TargetE float64      `json:"target_e"`
	Epsilon float64      `json:"epsilon"`
	Groups  []LayerGroup `json:"groups"`
}

// Final closes the audit of a run: the finished partition's quality report
// (identical to metrics.NewReport over the assignment) and, for BPart, the
// per-part sizes predicted at freeze time — the predicted-vs-actual gap is
// exactly what the refine pass repaired.
type Final struct {
	K        int     `json:"k"`
	V        []int   `json:"v"`
	E        []int   `json:"e"`
	VBias    float64 `json:"v_bias"`
	EBias    float64 `json:"e_bias"`
	CutRatio float64 `json:"cut_ratio"`
	// PredictedV/PredictedE are the per-part sizes at combining freeze
	// time (BPart only).
	PredictedV  []int `json:"predicted_v,omitempty"`
	PredictedE  []int `json:"predicted_e,omitempty"`
	RefineMoves int   `json:"refine_moves"`
}

// record is implemented by the record shapes: the event each becomes.
type record interface{ event() string }

func (Header) event() string      { return eventHeader }
func (Decision) event() string    { return eventDecision }
func (Window) event() string      { return eventWindow }
func (Merge) event() string       { return eventCombine }
func (LayerRecord) event() string { return eventLayer }
func (Final) event() string       { return eventFinal }

// Emit records rec, one of the record shapes, as one audit.* event on tr,
// when tr is enabled: one attr per field, named by its json tag, so the
// tags are the one schema Emit writes and Audit.Add reads back. A field
// tagged omitempty is left out when zero. Slices go to tr as they are (a
// Memory tracer keeps them), so the caller must not reuse them.
func Emit(tr telemetry.Tracer, rec record) {
	if tr == nil || !tr.Enabled() {
		return
	}
	v := reflect.ValueOf(rec)
	attrs := make([]telemetry.Attr, 0, v.NumField())
	for i := 0; i < v.NumField(); i++ {
		key, opt, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
		f := v.Field(i)
		switch {
		case opt == "omitempty" && f.IsZero():
		case f.Kind() == reflect.Int:
			attrs = append(attrs, telemetry.Int(key, int(f.Int())))
		case f.Kind() == reflect.Float64:
			attrs = append(attrs, telemetry.Float(key, f.Float()))
		case f.Kind() == reflect.String:
			attrs = append(attrs, telemetry.String(key, f.String()))
		default:
			attrs = append(attrs, telemetry.Any(key, f.Interface()))
		}
	}
	tr.Event(rec.event(), attrs...)
}

// Package partaudit is the decision-side observability subsystem: where
// internal/telemetry answers "how long did each phase take" and
// internal/traceview answers "where did the simulated cluster wait",
// partaudit answers "why did the partitioner do what it did".
//
// An Auditor writes an opt-in JSONL audit log of one partitioning run with
// three kinds of content:
//
//   - Decision records — a sampled subset of streaming placements (every
//     Nth vertex, plus every top-degree hub) with the full per-candidate
//     score decomposition: the neighbor-affinity term, the balance-penalty
//     term, the capacity-skip reason, and the runner-up gap. These are the
//     per-decision quantities behind the paper's Eq. 2 scoring.
//   - Window records — every Window placed vertices, a snapshot of the
//     per-piece |V_i|/|E_i|, the vertex/edge bias and the cut ratio over
//     the arcs resolved so far. The final snapshot of a full-graph stream
//     reproduces metrics.NewReport exactly (tested), so the timeline ends
//     on the same numbers Evaluate reports.
//   - Combining records — per layer and round, which pieces were paired
//     (vertex-lightest with vertex-heaviest, the paper's
//     inverse-proportionality rationale), every group's per-dimension
//     deviation and freeze outcome, and the final predicted-vs-actual
//     per-part balance.
//
// A nil *Auditor is a valid no-op on every method. Framing is
// internal/recordlog's: whole-line writes flushed every flushCadence
// records with a sticky first error surfaced by Flush/Close, and a reader
// (ReadLog) that tolerates a torn final line from a crashed run while
// rejecting interior damage. cmd/tracestat renders the log (explain /
// timeline / combine).
package partaudit

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"bpart/internal/graph"
	"bpart/internal/recordlog"
)

// Version is the audit log schema version, written in the header record
// and documented in EXPERIMENTS.md.
const Version = 1

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

// Config tunes what the Auditor records. The zero value selects defaults
// via Normalize.
type Config struct {
	// SampleEvery records the full score decomposition of every Nth
	// placement of each stream. Default 64.
	SampleEvery int
	// Hubs always records the placements of the Hubs highest-out-degree
	// vertices regardless of sampling — hub placements are the ones the
	// edge-balance claims hinge on. Default 16.
	Hubs int
	// Window is the timeline snapshot cadence in placed vertices.
	// Default 1024.
	Window int
}

// Normalize fills defaults and validates the configuration.
func (c *Config) Normalize() error {
	if c.SampleEvery == 0 {
		c.SampleEvery = 64
	}
	if c.Hubs == 0 {
		c.Hubs = 16
	}
	if c.Window == 0 {
		c.Window = 1024
	}
	if c.SampleEvery < 0 || c.Hubs < 0 || c.Window < 0 {
		return fmt.Errorf("partaudit: negative Config field: %+v", *c)
	}
	return nil
}

// Auditable is implemented by partitioners that accept an audit sink after
// construction (BPart, Fennel, LDG).
type Auditable interface {
	SetAudit(*Auditor)
}

// Header is the first record of an audit log.
type Header struct {
	Type        string `json:"type"` // "audit_header"
	Version     int    `json:"version"`
	Scheme      string `json:"scheme"`
	K           int    `json:"k"`
	Vertices    int    `json:"n"`
	Edges       int    `json:"m"`
	SampleEvery int    `json:"sample_every"`
	Hubs        int    `json:"hubs"`
	HubDegree   int    `json:"hub_degree"` // min out-degree that forces sampling
	Window      int    `json:"window"`
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
	Type   string `json:"type"` // "decision"
	Layer  int    `json:"layer"`
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

// Chosen returns the candidate row of the piece actually assigned.
func (d *Decision) Chosen() (Candidate, bool) {
	if d == nil {
		return Candidate{}, false
	}
	for _, c := range d.Cands {
		if c.Piece == d.Piece {
			return c, true
		}
	}
	return Candidate{}, false
}

// Window is one streaming quality snapshot: the per-piece sizes and
// quality metrics after Placed vertices of one stream.
type Window struct {
	Type   string `json:"type"` // "window"
	Layer  int    `json:"layer"`
	Index  int    `json:"index"`
	Placed int    `json:"placed"`
	PieceV []int  `json:"piece_v"`
	PieceE []int  `json:"piece_e"`
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
	Type    string `json:"type"` // "combine"
	Layer   int    `json:"layer"`
	Round   int    `json:"round"`
	APieces []int  `json:"a_pieces"`
	AV      int    `json:"a_v"`
	AE      int    `json:"a_e"`
	BPieces []int  `json:"b_pieces"`
	BV      int    `json:"b_v"`
	BE      int    `json:"b_e"`
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
	Type    string       `json:"type"` // "layer"
	Layer   int          `json:"layer"`
	Pieces  int          `json:"pieces"`
	TargetV float64      `json:"target_v"`
	TargetE float64      `json:"target_e"`
	Epsilon float64      `json:"epsilon"`
	Groups  []LayerGroup `json:"groups"`
}

// Final is the last record of an audit log: the finished partition's
// quality report (identical to metrics.NewReport over the assignment) and,
// for BPart, the per-part sizes predicted at freeze time — the
// predicted-vs-actual gap is exactly what the refine pass repaired.
type Final struct {
	Type     string  `json:"type"` // "final"
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

// Auditor writes the audit log. A nil *Auditor is a valid no-op sink, so
// partitioners store one unconditionally and never branch on "is audit
// on" beyond a nil check.
type Auditor struct {
	cfg    Config
	log    *recordlog.Writer
	hubDeg int
}

// flushCadence is the audit log's flush cadence in records, so a crashed
// run still leaves a parseable prefix: decisions are sampled per vertex,
// too frequent to flush one by one.
const flushCadence = 256

// New returns an Auditor writing JSON lines to w. A zero Config selects
// the defaults.
func New(w io.Writer, cfg Config) (*Auditor, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	return &Auditor{cfg: cfg, log: recordlog.NewWriter(w, flushCadence), hubDeg: math.MaxInt}, nil
}

// Begin writes the header record for one partitioning run and derives the
// hub sampling threshold (the cfg.Hubs-th largest out-degree) from g.
// Call it once, before any stream starts.
func (a *Auditor) Begin(scheme string, g *graph.Graph, k int) {
	if a == nil {
		return
	}
	hubDeg := math.MaxInt
	n := g.NumVertices()
	if a.cfg.Hubs > 0 && n > 0 {
		degs := make([]int, n)
		for v := 0; v < n; v++ {
			degs[v] = g.OutDegree(graph.VertexID(v))
		}
		sort.Ints(degs)
		h := a.cfg.Hubs
		if h > n {
			h = n
		}
		hubDeg = degs[n-h]
		if hubDeg < 1 {
			hubDeg = 1 // never hub-sample isolated vertices
		}
	}
	a.hubDeg = hubDeg
	a.emit(Header{
		Type:        "audit_header",
		Version:     Version,
		Scheme:      scheme,
		K:           k,
		Vertices:    n,
		Edges:       g.NumEdges(),
		SampleEvery: a.cfg.SampleEvery,
		Hubs:        a.cfg.Hubs,
		HubDegree:   hubDeg,
		Window:      a.cfg.Window,
	})
}

// Combine records one pairing of a combining round.
func (a *Auditor) Combine(m Merge) {
	if a == nil {
		return
	}
	m.Type = "combine"
	a.emit(m)
}

// Layer records one layer's combining outcome.
func (a *Auditor) Layer(l LayerRecord) {
	if a == nil {
		return
	}
	l.Type = "layer"
	a.emit(l)
}

// Final records the finished partition's quality report. It is the audit
// timeline's last window: by construction it equals Evaluate's Report.
func (a *Auditor) Final(f Final) {
	if a == nil {
		return
	}
	f.Type = "final"
	a.emit(f)
}

// emit marshals one record as a JSON line. An unencodable record degrades
// to an error line that keeps the stream parseable, mirroring
// telemetry.JSONL.
func (a *Auditor) emit(rec any) {
	if a == nil {
		return
	}
	line, err := json.Marshal(rec)
	if err != nil {
		line = []byte(`{"type":"error"}`)
	}
	a.log.Line(line)
}

// Flush drains buffered lines and returns the first error any write hit,
// so a truncated audit log is never silent.
func (a *Auditor) Flush() error {
	if a == nil {
		return nil
	}
	return a.log.Flush()
}

// Close flushes; the underlying writer is the caller's to close.
func (a *Auditor) Close() error { return a.Flush() }

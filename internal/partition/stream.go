package partition

import (
	"fmt"
	"math"

	"bpart/internal/graph"
	"bpart/internal/metrics"
	"bpart/internal/partaudit"
	"bpart/internal/telemetry"
)

// StreamOptions configures the weighted greedy streaming engine shared by
// Fennel (C=1) and BPart's partitioning phase (C=½ by default).
//
// Every streamed vertex v is scored against each part i as
//
//	S(v, G_i) = |V_i ∩ N(v)| − α·γ·W_i^{γ−1},
//
// where W_i = C·|V_i| + (1−C)·|E_i|/d̄ is the paper's weighted balance
// indicator (Eq. 1/2). C=1 recovers Fennel's vertex-count penalty; C=0 is a
// pure edge-balance penalty.
type StreamOptions struct {
	// K is the number of parts.
	K int
	// C is the weighting factor c ∈ [0,1] of Eq. 1.
	C float64
	// Alpha is Fennel's α; <= 0 selects the standard
	// α = m·k^{γ−1}/n^γ computed over the streamed vertex set.
	Alpha float64
	// Gamma is Fennel's γ; <= 0 selects the standard 1.5.
	Gamma float64
	// Slack ν bounds each part: W_i may not exceed ν·n_s/k (n_s = number
	// of streamed vertices, which equals Σ W_i at completion). <= 0
	// selects 1.1.
	Slack float64
	// Vertices restricts the stream to a subset, in the given order.
	// nil streams every vertex in ID order.
	Vertices []graph.VertexID
	// CapV and CapE, when positive, are hard per-part ceilings on |V_i|
	// and |E_i|. BPart's partitioning phase uses them to stop any single
	// piece from exceeding its share of either dimension — without the
	// edge ceiling, hub vertices (which the affinity term naturally
	// clusters) can push one piece past the final per-part edge target,
	// which no amount of combining can repair.
	CapV, CapE int
	// In, when non-nil, must be the transpose of the streamed graph; the
	// affinity term then counts in-neighbors as well, matching Fennel's
	// undirected N(v). Without it only out-neighbors count, which halves
	// the clustering signal on directed graphs.
	In *graph.Graph
	// Tracer, when non-nil, receives one "partition.stream" span per call
	// carrying the StreamStats. Per-vertex work stays uninstrumented;
	// stats accumulate in locals and publish once at the end.
	Tracer telemetry.Tracer
	// Metrics, when non-nil, accumulates the StreamStats into
	// stream_*_total counters across calls.
	Metrics *telemetry.Registry
	// Audit, when non-nil, receives sampled per-placement decision
	// records (full score decomposition) and windowed quality snapshots
	// for this stream. The audited run's assignment is byte-identical to
	// an unaudited one: auditing only observes scores, never alters them.
	Audit *partaudit.StreamRecorder
}

// StreamStats counts what the streaming loop did — the introspection knobs
// for tuning caps and slack: how often each capacity dimension rejected the
// greedy choice, how often ties were broken by load, and how often every
// part was full and the lightest-part fallback fired.
type StreamStats struct {
	// Placed is the number of vertices assigned (= len of the stream set).
	Placed int64
	// CapWSkips counts part candidacies rejected by the W_i slack cap.
	CapWSkips int64
	// CapVSkips counts part candidacies rejected by the hard |V_i| cap.
	CapVSkips int64
	// CapESkips counts part candidacies rejected by the hard |E_i| cap.
	CapESkips int64
	// TieBreaks counts score ties resolved by picking the lighter part.
	TieBreaks int64
	// Fallbacks counts vertices placed by the all-parts-full fallback.
	Fallbacks int64
}

// publish pushes the stats to registry counters and, when a span was
// opened for this stream, closes it with the stats as attributes.
func (s *StreamStats) publish(opt *StreamOptions, sp telemetry.Span) {
	if reg := opt.Metrics; reg != nil {
		reg.Counter("stream_placed_total").Add(s.Placed)
		reg.Counter("stream_capw_skips_total").Add(s.CapWSkips)
		reg.Counter("stream_capv_skips_total").Add(s.CapVSkips)
		reg.Counter("stream_cape_skips_total").Add(s.CapESkips)
		reg.Counter("stream_tie_breaks_total").Add(s.TieBreaks)
		reg.Counter("stream_fallbacks_total").Add(s.Fallbacks)
	}
	if sp != nil {
		sp.End(
			telemetry.Int64("placed", s.Placed),
			telemetry.Int64("capw_skips", s.CapWSkips),
			telemetry.Int64("capv_skips", s.CapVSkips),
			telemetry.Int64("cape_skips", s.CapESkips),
			telemetry.Int64("tie_breaks", s.TieBreaks),
			telemetry.Int64("fallbacks", s.Fallbacks),
		)
	}
}

// The scoring loop carries a candidate's capacity-skip reason as a small
// integer; skipNames turns it into the partaudit string only when a sampled
// decision records the candidate.
const (
	skipNone = iota
	skipCapW
	skipCapV
	skipCapE
)

var skipNames = [...]string{
	skipNone: "",
	skipCapW: partaudit.SkipCapW,
	skipCapV: partaudit.SkipCapV,
	skipCapE: partaudit.SkipCapE,
}

// StreamResult is a partial assignment: Parts[v] is Unassigned for vertices
// outside the streamed set.
type StreamResult struct {
	Parts []int
	K     int
	// VertexCount and EdgeCount are the per-part |V_i| and |E_i|
	// (out-degree mass) over the streamed set.
	VertexCount []int
	EdgeCount   []int
	// Stats counts cap hits, tie-breaks and fallbacks during the stream.
	Stats StreamStats
}

// Stream runs the weighted greedy streaming partitioner over g.
func Stream(g *graph.Graph, opt StreamOptions) (*StreamResult, error) {
	if err := checkArgs(g, opt.K); err != nil {
		return nil, err
	}
	if opt.C < 0 || opt.C > 1 {
		return nil, fmt.Errorf("partition: C = %v, want in [0,1]", opt.C)
	}
	if opt.Gamma <= 0 {
		opt.Gamma = 1.5
	}
	if opt.Slack <= 0 {
		opt.Slack = 1.1
	}
	stream := opt.Vertices
	if stream == nil {
		stream = make([]graph.VertexID, g.NumVertices())
		for v := range stream {
			stream[v] = graph.VertexID(v)
		}
	}
	ns := len(stream)
	if ns == 0 {
		return &StreamResult{
			Parts:       fillUnassigned(g.NumVertices()),
			K:           opt.K,
			VertexCount: make([]int, opt.K),
			EdgeCount:   make([]int, opt.K),
		}, nil
	}
	var ms int
	for _, v := range stream {
		ms += g.OutDegree(v)
	}
	avgDeg := float64(ms) / float64(ns)
	if metrics.IsZero(avgDeg) {
		avgDeg = 1 // edgeless stream set: W_i degenerates to C·|V_i|+(1−C)·0
	}
	alpha := opt.Alpha
	if alpha <= 0 {
		alpha = float64(ms) * math.Pow(float64(opt.K), opt.Gamma-1) / math.Pow(float64(ns), opt.Gamma)
		if alpha <= 0 {
			// Edgeless set: any positive constant makes the penalty
			// strictly increasing in W and spreads vertices evenly.
			alpha = 1
		}
	}
	// ΣW_i = C·n_s + (1−C)·m_s/d̄ = n_s, so the per-part cap is in
	// "vertex equivalents" regardless of C.
	capW := opt.Slack * float64(ns) / float64(opt.K)

	parts := fillUnassigned(g.NumVertices())
	vCount := make([]int, opt.K)
	eCount := make([]int, opt.K)
	w := make([]float64, opt.K)    // current W_i
	affinity := make([]int, opt.K) // |V_i ∩ N(v)| scratch
	gammaPow := powFunc(opt.Gamma - 1)
	// pen[i] = α·γ·W_i^{γ−1}, the penalty half of the score. Only the part
	// that just received a vertex has a new W_i, so one entry is refreshed
	// per placement instead of K being recomputed per vertex.
	pen := make([]float64, opt.K)
	for i := range pen {
		pen[i] = alpha * opt.Gamma * gammaPow(w[i])
	}

	if opt.In != nil &&
		(opt.In.NumVertices() != g.NumVertices() || opt.In.NumEdges() != g.NumEdges()) {
		return nil, fmt.Errorf("partition: In graph shape %v does not match %v", opt.In, g)
	}
	// Stats accumulate in plain locals — the inner loop pays a handful of
	// integer increments whether or not telemetry is attached — and are
	// published once per stream.
	var capWSkips, capVSkips, capESkips, tieBreaks, fallbacks int64
	var sp telemetry.Span
	if opt.Tracer != nil && opt.Tracer.Enabled() {
		sp = opt.Tracer.Span("partition.stream",
			telemetry.Int("k", opt.K),
			telemetry.Int("streamed", ns),
			telemetry.Int("edges", ms))
	}
	for _, v := range stream {
		for i := range affinity {
			affinity[i] = 0
		}
		for _, u := range g.Neighbors(v) {
			if p := parts[u]; p != Unassigned {
				affinity[p]++
			}
		}
		if opt.In != nil {
			for _, u := range opt.In.Neighbors(v) {
				if p := parts[u]; p != Unassigned {
					affinity[p]++
				}
			}
		}
		d := g.OutDegree(v)
		dec := opt.Audit.SampleDecision(v, d)
		cause := partaudit.CauseGreedy
		best, bestScore := -1, math.Inf(-1)
		for i := 0; i < opt.K; i++ {
			skip := skipNone
			switch {
			case w[i] >= capW:
				capWSkips++
				skip = skipCapW
			case opt.CapV > 0 && vCount[i]+1 > opt.CapV:
				capVSkips++
				skip = skipCapV
			case opt.CapE > 0 && eCount[i]+d > opt.CapE:
				capESkips++
				skip = skipCapE
			}
			score := float64(affinity[i]) - pen[i]
			if dec != nil {
				dec.Candidate(i, affinity[i], pen[i], score, skipNames[skip])
			}
			if skip != skipNone {
				continue
			}
			if score > bestScore {
				best, bestScore = i, score
				cause = partaudit.CauseGreedy
			} else if metrics.TieEq(score, bestScore) && best >= 0 && w[i] < w[best] {
				best = i
				tieBreaks++
				cause = partaudit.CauseTieBreak
			}
		}
		if best == -1 {
			// All parts at capacity (possible only through rounding):
			// fall back to the lightest part.
			fallbacks++
			cause = partaudit.CauseFallback
			best = 0
			for i := 1; i < opt.K; i++ {
				if w[i] < w[best] {
					best = i
				}
			}
		}
		parts[v] = best
		vCount[best]++
		eCount[best] += d
		w[best] += opt.C + (1-opt.C)*float64(d)/avgDeg
		pen[best] = alpha * opt.Gamma * gammaPow(w[best])
		opt.Audit.Place(v, d, best, cause, dec, parts)
	}
	opt.Audit.End()
	stats := StreamStats{
		Placed:    int64(ns),
		CapWSkips: capWSkips,
		CapVSkips: capVSkips,
		CapESkips: capESkips,
		TieBreaks: tieBreaks,
		Fallbacks: fallbacks,
	}
	stats.publish(&opt, sp)
	return &StreamResult{Parts: parts, K: opt.K, VertexCount: vCount, EdgeCount: eCount, Stats: stats}, nil
}

func fillUnassigned(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = Unassigned
	}
	return p
}

// powFunc returns a fast x^e evaluator for the common streaming exponents:
// γ−1 = 0.5 (the default) uses math.Sqrt, e = 1 is the identity, everything
// else falls back to math.Pow. The streaming loop evaluates this once per
// placed vertex.
func powFunc(e float64) func(float64) float64 {
	switch e {
	case 0.5:
		return math.Sqrt
	case 1:
		return func(x float64) float64 { return x }
	case 0:
		return func(float64) float64 { return 1 }
	default:
		return func(x float64) float64 { return math.Pow(x, e) }
	}
}

// Fennel is the streaming partitioner of Tsourakakis et al. (WSDM'14) with
// the standard parameters γ=1.5, α=m·k^{γ−1}/n^γ and slack ν=1.1. It
// balances vertex counts and greedily reduces edge cuts; edge counts remain
// skewed on scale-free graphs (§2.3). Vertices are streamed in natural ID
// order, exactly as the BPart paper's Fig 2(c) depicts ("scan all
// vertices") — a randomized order would incidentally balance edge counts
// on the synthetic datasets and erase the one-dimensionality the paper
// measures.
type Fennel struct {
	// Alpha, Gamma and Slack override the standard parameters when > 0.
	Alpha, Gamma, Slack float64

	aud *partaudit.Auditor
}

// Name implements Partitioner.
func (Fennel) Name() string { return "Fennel" }

// SetAudit implements partaudit.Auditable: the auditor receives sampled
// decision records and the windowed quality timeline of the next
// Partition call. Audit attachment requires a pointer instance (the
// registry hands those out); nil detaches.
func (f *Fennel) SetAudit(a *partaudit.Auditor) { f.aud = a }

// Partition implements Partitioner. Like the original Fennel, the
// neighborhood N(v) is undirected: the transpose is built once so in-edges
// contribute to affinity.
func (f Fennel) Partition(g *graph.Graph, k int) (*Assignment, error) {
	if err := checkArgs(g, k); err != nil {
		return nil, err
	}
	in := g.Transpose()
	f.aud.Begin("Fennel", g, k)
	res, err := Stream(g, StreamOptions{
		K:     k,
		C:     1, // vertex-only balance indicator: classic Fennel
		Alpha: f.Alpha,
		Gamma: f.Gamma,
		Slack: f.Slack,
		In:    in,
		Audit: f.aud.Stream(0, g, in, k),
	})
	if err != nil {
		return nil, err
	}
	auditFinal(f.aud, g, res.Parts, k)
	return &Assignment{Parts: res.Parts, K: k}, nil
}

// auditFinal emits the audit log's closing record: the finished
// assignment's quality report, computed exactly as Evaluate computes it —
// which is what makes the timeline's final numbers and the Report equal
// by construction.
func auditFinal(a *partaudit.Auditor, g *graph.Graph, parts []int, k int) {
	if a == nil {
		return
	}
	rep := metrics.NewReport(g, parts, k, false)
	a.Final(partaudit.Final{
		K: k, V: rep.Vertices, E: rep.Edges,
		VBias: rep.VertexBias, EBias: rep.EdgeBias, CutRatio: rep.CutRatio,
	})
}

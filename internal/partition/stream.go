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
	// α = m·k^{γ−1}/n^γ computed over Start's and the streamed vertices.
	Alpha float64
	// Gamma is Fennel's γ ≥ 1; <= 0 selects the standard 1.5.
	Gamma float64
	// Slack ν bounds each part: W_i may not exceed ν·n_s/k (n_s = number
	// of placed vertices, Start's and the streamed ones, which equals Σ W_i
	// at completion). <= 0 selects 1.1; +Inf means no cap.
	Slack float64
	// Vertices restricts the stream to a subset, in the given order.
	// nil streams every vertex in ID order.
	Vertices []graph.VertexID
	// Start, when non-nil, is an assignment to extend (|V| entries, each a
	// part in [0,K) or Unassigned, none streamed): its vertices count toward
	// affinity, |V_i|, |E_i|, W_i and the default α, d̄ and slack cap from the
	// start. It cannot be combined with Audit, which assumes empty parts.
	Start []int
	// CapV and CapE, when positive, are hard per-part ceilings on |V_i|
	// and |E_i|. BPart's partitioning phase uses them to stop any single
	// piece from exceeding its share of either dimension — without the
	// edge ceiling, hub vertices (which the affinity term naturally
	// clusters) can push one piece past the final per-part edge target,
	// which no amount of combining can repair.
	CapV, CapE int
	// In, when non-nil, must be the transpose of the streamed graph: pass
	// g.In(). The affinity term then counts in-neighbors as well, matching
	// Fennel's undirected N(v). Without it only out-neighbors count, which
	// halves the clustering signal on directed graphs.
	In *graph.Graph
	// Tracer, when non-nil, receives one "partition.stream" span per call
	// carrying the StreamStats. Per-vertex work stays uninstrumented;
	// stats accumulate in locals and publish once at the end. A registry
	// teed into it folds them into partition_stream_*_total counters.
	Tracer telemetry.Tracer
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
	// Placed is the number of vertices streamed (Start's are not counted).
	Placed int64
	// CapWSkips counts part candidacies rejected by the W_i slack cap.
	CapWSkips int64
	// CapVSkips counts part candidacies rejected by the hard |V_i| cap.
	CapVSkips int64
	// CapESkips counts part candidacies rejected by the hard |E_i| cap.
	CapESkips int64
	// TieBreaks counts placements decided by a tie-break: the winner shares
	// the best score with a lower-index part and won on lower W_i. It equals
	// the number of placements whose audit cause is "tie_break" — at most
	// one per placement, however many parts tied along the way.
	TieBreaks int64
	// Fallbacks counts vertices placed by the all-parts-full fallback.
	Fallbacks int64
}

// publish closes the stream's span, when one was opened, with the stats
// as attributes.
func (s *StreamStats) publish(sp telemetry.Span) {
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

// A candidate's capacity-skip reason is carried as a small integer; skipNames
// turns it into the partaudit string only when a sampled decision records the
// candidate. skipNone, skipCapW and skipCapV double as a part's cached class
// (open, W-full, V-full): they do not depend on the vertex being placed.
const (
	skipNone uint8 = iota
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
// outside the streamed set and Start.
type StreamResult struct {
	Parts []int
	K     int
	// VertexCount and EdgeCount are the per-part |V_i| and |E_i|
	// (out-degree mass) over Start's vertices and the streamed set.
	VertexCount []int
	EdgeCount   []int
	// Stats counts cap hits, tie-breaks and fallbacks during the stream.
	Stats StreamStats
}

// Stream runs the weighted greedy streaming partitioner over g.
//
// A placement costs the arcs of its vertex plus the parts those arcs touch,
// not K. Three facts make that exact rather than approximate:
//
//   - A part no neighbour sits in scores −pen, and pen does not shrink as W
//     grows (γ ≥ 1), so the best of them under "max score, then lower W,
//     then lower index" is the first eligible one in an order of the open
//     parts by (W, index). Only the part that just received a vertex has a
//     new W, so the order is repaired by moving that one part.
//   - Whether a part is closed by the W slack or the |V_i| cap does not
//     depend on the vertex, so it is cached per part, re-derived for the
//     receiver alone, and counted into CapWSkips/CapVSkips from two running
//     totals. A closed part never reopens: W_i and |V_i| only grow.
//   - The |E_i| cap does depend on the vertex's degree d; the open parts it
//     rejects are the tail of a second order by |E_i|, walked from the
//     heavy end.
func Stream(g *graph.Graph, opt StreamOptions) (*StreamResult, error) {
	if err := checkArgs(g, opt.K); err != nil {
		return nil, err
	}
	if opt.C < 0 || opt.C > 1 {
		return nil, fmt.Errorf("partition: C = %v, want in [0,1]", opt.C)
	}
	n := g.NumVertices()
	if opt.In != nil && (opt.In.NumVertices() != n || opt.In.NumEdges() != g.NumEdges()) {
		return nil, fmt.Errorf("partition: In graph shape %v does not match %v", opt.In, g)
	}
	if opt.Gamma <= 0 {
		opt.Gamma = 1.5
	}
	if opt.Gamma < 1 {
		// The penalty α·γ·W^{γ−1} must not shrink as a part fills: that is
		// what makes the lightest open part the best untouched candidate.
		return nil, fmt.Errorf("partition: Gamma = %v, want >= 1", opt.Gamma)
	}
	if opt.Slack <= 0 {
		opt.Slack = 1.1
	}
	if opt.Start != nil && len(opt.Start) != n {
		return nil, fmt.Errorf("partition: Start has %d entries, want |V| = %d", len(opt.Start), n)
	}
	if opt.Start != nil && opt.Audit != nil {
		return nil, fmt.Errorf("partition: Start cannot be audited: the audit recorder assumes empty parts")
	}
	parts := fillUnassigned(n)
	copy(parts, opt.Start)
	vCount := make([]int, opt.K)
	eCount := make([]int, opt.K)
	for v, p := range opt.Start {
		if p < Unassigned || p >= opt.K {
			return nil, fmt.Errorf("partition: Start[%d] = %d, want in [0,%d) or Unassigned", v, p, opt.K)
		}
		if p != Unassigned {
			vCount[p]++
			eCount[p] += g.OutDegree(graph.VertexID(v))
		}
	}
	stream := opt.Vertices
	if stream == nil {
		stream = OrderByID(n)
	}
	ns := len(stream)
	if ns == 0 {
		return &StreamResult{Parts: parts, K: opt.K, VertexCount: vCount, EdgeCount: eCount}, nil
	}
	var ms int
	for pos, v := range stream {
		if int(v) >= n {
			return nil, fmt.Errorf("partition: Vertices[%d] = %d, want < %d", pos, v, n)
		}
		if parts[v] != Unassigned {
			return nil, fmt.Errorf("partition: Vertices[%d] = %d is already assigned in Start", pos, v)
		}
		ms += g.OutDegree(v)
	}
	nAll, mAll := ns, ms // every vertex placed at the end, Start's and streamed
	for i := range vCount {
		nAll += vCount[i]
		mAll += eCount[i]
	}
	avgDeg := float64(mAll) / float64(nAll)
	if metrics.IsZero(avgDeg) {
		avgDeg = 1 // edgeless vertex set: W_i degenerates to C·|V_i|+(1−C)·0
	}
	alpha := opt.Alpha
	if alpha <= 0 {
		alpha = float64(mAll) * math.Pow(float64(opt.K), opt.Gamma-1) / math.Pow(float64(nAll), opt.Gamma)
		if alpha <= 0 {
			// Edgeless set: any positive constant makes the penalty
			// strictly increasing in W and spreads vertices evenly.
			alpha = 1
		}
	}
	// ΣW_i = C·n + (1−C)·m/d̄ = n over the n placed vertices, so the per-part
	// cap is in "vertex equivalents" regardless of C.
	capW := opt.Slack * float64(nAll) / float64(opt.K)
	// No |E_i| ceiling is a ceiling no part can reach, so the per-candidate
	// test below needs no "is it set" branch.
	capE := math.MaxInt
	if opt.CapE > 0 {
		capE = opt.CapE
	}

	w := make([]float64, opt.K)     // current W_i
	affinity := make([]int, opt.K)  // |V_i ∩ N(v)| scratch, zero between vertices
	touched := make([]int, opt.K+1) // parts with affinity > 0, see tally
	gammaPow := powFunc(opt.Gamma - 1)
	// pen[i] = α·γ·W_i^{γ−1}, the penalty half of the score. Only the part
	// that just received a vertex has a new W_i, so one entry is refreshed
	// per placement instead of K being recomputed per vertex.
	pen := make([]float64, opt.K)
	// class[i] is part i's vertex-independent skip reason, in the precedence
	// W slack, then |V_i| cap; inClass[c] counts the parts of class c.
	classOf := func(i int) uint8 {
		switch {
		case w[i] >= capW:
			return skipCapW
		case opt.CapV > 0 && vCount[i]+1 > opt.CapV:
			return skipCapV
		}
		return skipNone
	}
	class := make([]uint8, opt.K)
	var inClass [skipCapE]int64
	for i := range pen {
		w[i] = opt.C*float64(vCount[i]) + (1-opt.C)*float64(eCount[i])/avgDeg
		pen[i] = alpha * opt.Gamma * gammaPow(w[i])
		class[i] = classOf(i)
		inClass[class[i]]++
	}
	// lighter is the order untouched parts are preferred in: a part with no
	// neighbour of v scores −pen, which does not grow with W, and equal
	// scores go to the lower W, then the lower index.
	lighter := func(a, b int) bool {
		return w[a] < w[b] || (metrics.TieEq(w[a], w[b]) && a < b)
	}
	lighterE := func(a, b int) bool { return eCount[a] < eCount[b] }
	// The open parts in both orders; byE stays empty, and is never repaired,
	// without an |E_i| cap.
	byW := newPartOrder(class, lighter)
	var byE partOrder
	if opt.CapE > 0 {
		byE = newPartOrder(class, lighterE)
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
	for pos, v := range stream {
		if parts[v] != Unassigned {
			err := fmt.Errorf("partition: Vertices[%d] = %d is streamed twice", pos, v)
			if sp != nil {
				sp.End(telemetry.String("error", err.Error()))
			}
			return nil, err
		}
		nt := tally(g.Neighbors(v), parts, affinity, touched, 0)
		if opt.In != nil {
			nt = tally(opt.In.Neighbors(v), parts, affinity, touched, nt)
		}
		d := g.OutDegree(v)
		capWSkips += inClass[skipCapW]
		capVSkips += inClass[skipCapV]
		for j := len(byE.list) - 1; j >= 0 && eCount[byE.list[j]]+d > capE; j-- {
			capESkips++
		}

		// best is the winner under "max score, then lower W, then lower
		// index"; first is the lowest index among the parts that share the
		// winning score, which is where an index-order scan would have
		// stopped had it not preferred a lighter part.
		best, first, bestScore := -1, -1, math.Inf(-1)
		offer := func(i int, score float64) {
			switch {
			case score > bestScore:
				best, first, bestScore = i, i, score
			case metrics.TieEq(score, bestScore) && best >= 0:
				if i < first {
					first = i
				}
				if lighter(i, best) {
					best = i
				}
			}
		}
		for _, i := range touched[:nt] {
			if class[i] == skipNone && eCount[i]+d <= capE {
				offer(i, float64(affinity[i])-pen[i])
			}
		}
		// Untouched parts score −pen: nothing past the first one below the
		// best score so far can win or tie, and the ones that tie are its
		// bit-equal-pen neighbours in the order.
		for _, i := range byW.list {
			score := -pen[i]
			if score < bestScore {
				break
			}
			if affinity[i] == 0 && eCount[i]+d <= capE {
				offer(i, score)
			}
		}
		cause := partaudit.CauseGreedy
		switch {
		case best == -1:
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
		case best != first:
			tieBreaks++
			cause = partaudit.CauseTieBreak
		}
		dec := opt.Audit.SampleDecision(v, d)
		if dec != nil {
			// A sampled decision reports all K candidates in index order;
			// the selection above has no per-candidate hook.
			for i := 0; i < opt.K; i++ {
				skip := class[i]
				if skip == skipNone && eCount[i]+d > capE {
					skip = skipCapE
				}
				dec.Candidate(i, affinity[i], pen[i], float64(affinity[i])-pen[i], skipNames[skip])
			}
		}
		for _, i := range touched[:nt] {
			affinity[i] = 0
		}

		parts[v] = best
		vCount[best]++
		eCount[best] += d
		w[best] += opt.C + (1-opt.C)*float64(d)/avgDeg
		pen[best] = alpha * opt.Gamma * gammaPow(w[best])
		// Only the receiver's class and keys changed. W_i and |V_i| never
		// shrink, so a part only ever closes; the fallback can place into a
		// closed part, which may take it from V-full to W-full.
		if was, now := class[best], classOf(best); was != now {
			class[best] = now
			inClass[was]--
			inClass[now]++
			byW.remove(best)
			if opt.CapE > 0 {
				byE.remove(best)
			}
		} else if now == skipNone {
			byW.sink(best, lighter)
			if opt.CapE > 0 {
				byE.sink(best, lighterE)
			}
		}
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
	stats.publish(sp)
	return &StreamResult{Parts: parts, K: opt.K, VertexCount: vCount, EdgeCount: eCount, Stats: stats}, nil
}

// tally adds one adjacency row of the vertex being placed to affinity and
// lists each part on its first increment in touched[nt:], returning the new
// count. The store is unconditional and nt advances by a conditional move, so
// the loop has no branch on affinity; touched has one slot beyond K for the
// store made when every part is already listed.
func tally(row []graph.VertexID, parts, affinity, touched []int, nt int) int {
	for _, u := range row {
		if p := parts[u]; p != Unassigned {
			a := affinity[p]
			touched[nt] = p
			if a == 0 {
				nt++
			}
			affinity[p] = a + 1
		}
	}
	return nt
}

// partOrder is a subset of the parts kept sorted by a key that changes for
// one part at a time: list holds the members in ascending key order and
// pos[p] is p's index in list, or -1 once p has been removed.
type partOrder struct {
	list []int
	pos  []int
}

// newPartOrder returns the open parts, those of class skipNone, sorted by less
// and then by index, by sinking each into the sorted tail behind it.
func newPartOrder(class []uint8, less func(a, b int) bool) partOrder {
	o := partOrder{list: make([]int, 0, len(class)), pos: make([]int, len(class))}
	for p := range o.pos {
		o.pos[p] = -1
		if class[p] == skipNone {
			o.pos[p] = len(o.list)
			o.list = append(o.list, p)
		}
	}
	for j := len(o.list) - 1; j >= 0; j-- {
		o.sink(o.list[j], less)
	}
	return o
}

// remove drops p from the order if it is in it.
func (o *partOrder) remove(p int) {
	j := o.pos[p]
	if j < 0 {
		return
	}
	copy(o.list[j:], o.list[j+1:])
	o.list = o.list[:len(o.list)-1]
	for ; j < len(o.list); j++ {
		o.pos[o.list[j]] = j
	}
	o.pos[p] = -1
}

// sink moves p, whose key just grew, toward the heavy end until the order is
// sorted again. It is small enough to inline together with the less it is
// handed.
func (o *partOrder) sink(p int, less func(a, b int) bool) {
	j := o.pos[p]
	for ; j+1 < len(o.list) && less(o.list[j+1], p); j++ {
		q := o.list[j+1]
		o.list[j], o.pos[q] = q, j
	}
	o.list[j], o.pos[p] = p, j
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
// neighborhood N(v) is undirected: in-edges, read from g.In(), contribute
// to affinity.
func (f Fennel) Partition(g *graph.Graph, k int) (*Assignment, error) {
	if err := checkArgs(g, k); err != nil {
		return nil, err
	}
	f.aud.Begin("Fennel", g, k)
	res, err := Stream(g, StreamOptions{
		K:     k,
		C:     1, // vertex-only balance indicator: classic Fennel
		Alpha: f.Alpha,
		Gamma: f.Gamma,
		Slack: f.Slack,
		In:    g.In(),
		Audit: f.aud.Stream(0, g, k),
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

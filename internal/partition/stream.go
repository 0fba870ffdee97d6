package partition

import (
	"fmt"
	"math"
	"slices"

	"bpart/internal/graph"
	"bpart/internal/metrics"
	"bpart/internal/partaudit"
	"bpart/internal/telemetry"
)

// Fennel's standard streaming parameters (Tsourakakis et al., WSDM'14),
// the one setting every scheme built on Stream runs at.
const (
	// gamma is Fennel's γ: the penalty α·γ·W^{γ−1} is α·γ·√W.
	gamma = 1.5
	// DefaultSlack is Fennel's slack ν: the W_i cap StreamOptions.Slack <= 0
	// selects, LDG's capacity factor and BPart's per-layer |V_i|, |E_i| caps.
	DefaultSlack = 1.1
)

// StreamOptions configures the weighted greedy streaming engine shared by
// Fennel (C=1) and BPart's partitioning phase (C=½ by default).
//
// Every streamed vertex v is scored against each part i as
//
//	S(v, G_i) = |V_i ∩ N(v)| − α·γ·W_i^{γ−1},   γ = 1.5,
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
	// α = m·k^{γ−1}/n^γ computed over the held and the streamed vertices.
	Alpha float64
	// Slack ν bounds each part: W_i may not exceed ν·n_s/k (n_s = number
	// of placed vertices, the held and the streamed ones, which equals Σ W_i
	// at completion). <= 0 selects DefaultSlack; +Inf means no cap.
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
	// In, when non-nil, must be the transpose of the streamed graph: pass
	// g.In(). The affinity term then counts in-neighbors as well, matching
	// Fennel's undirected N(v). Without it only out-neighbors count, which
	// halves the clustering signal on directed graphs.
	In *graph.Graph
	// Tracer, when enabled, receives one "partition.stream" span per
	// non-empty pass carrying the StreamStats, and, when the state held no
	// vertex before the pass, the stream's audit.decision and audit.window
	// events (see partaudit): sampled placements with their full score
	// decomposition and windowed quality snapshots. Stats accumulate in locals and publish once at the end; a
	// registry teed into it folds them into partition_stream_*_total
	// counters. The traced assignment is byte-identical to an untraced one:
	// the audit only observes scores, never alters them.
	Tracer telemetry.Tracer
}

// StreamStats counts what the streaming loop did — the introspection knobs
// for tuning caps and slack: how often each capacity dimension rejected the
// greedy choice, how often ties were broken by load, and how often every
// part was full and the lightest-part fallback fired.
type StreamStats struct {
	// Placed is the number of vertices streamed (held ones are not counted).
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
// the state did not hold and the pass did not stream.
type StreamResult struct {
	// Parts is the state's own piece array: a StreamState's next Assign,
	// Unassign, Reset or pass changes it.
	Parts []int
	K     int
	// VertexCount and EdgeCount are the per-part |V_i| and |E_i|
	// (out-degree mass) over the held vertices and the streamed set.
	VertexCount []int
	EdgeCount   []int
	// Stats counts cap hits, tie-breaks and fallbacks during the stream.
	Stats StreamStats
}

// StreamState is one graph's streaming state, reused by every pass over it:
// the piece every vertex sits in (Unassigned where none), one dense array;
// the per-piece |V_i| and |E_i| of the vertices it holds; and the K-sized
// scratch a pass scores with, regrown only when K grows. A pass places its
// Vertices and leaves them placed; the vertices held before it (Assign's)
// count toward affinity, |V_i|, |E_i|, W_i and the default α, d̄ and slack
// cap from the start. Unassign and Reset take vertices back out, so a pass
// over a state emptied that way costs what it streams, not |V|: BPart
// streams every layer through one state and empties each residual vertex
// as it reads its piece.
type StreamState struct {
	g              *graph.Graph
	parts          []int
	vCount, eCount []int // per piece, over parts; as long as the largest K or piece seen
	// A pass's K-sized scratch (see Stream). Every affinity entry is zero
	// between vertices, and so between passes.
	w, pen            []float64
	affinity, touched []int
	class             []uint8
	byW, byE          partOrder
}

// NewStreamState returns g's state holding no vertex.
func NewStreamState(g *graph.Graph) *StreamState {
	return &StreamState{g: g, parts: fillUnassigned(g.NumVertices())}
}

// Assign places v in piece p before a pass, taking it out of the piece it
// held; p = Unassigned only takes it out. A pass whose K is not above every
// held piece fails. It panics, as an index would, if v >= |V| or p <
// Unassigned.
func (s *StreamState) Assign(v graph.VertexID, p int) {
	s.Unassign(v)
	if p == Unassigned {
		return
	}
	s.grow(p + 1)
	s.parts[v] = p
	s.vCount[p]++
	s.eCount[p] += s.g.OutDegree(v)
}

// Unassign takes v out of its piece and returns that piece, Unassigned if
// it held none.
func (s *StreamState) Unassign(v graph.VertexID) int {
	p := s.parts[v]
	if p != Unassigned {
		s.parts[v] = Unassigned
		s.vCount[p]--
		s.eCount[p] -= s.g.OutDegree(v)
	}
	return p
}

// grow lengthens the per-piece counts to at least k pieces.
func (s *StreamState) grow(k int) {
	if k > len(s.vCount) {
		s.vCount = append(s.vCount, make([]int, k-len(s.vCount))...)
		s.eCount = append(s.eCount, make([]int, k-len(s.eCount))...)
	}
}

// Reset unassigns every vertex of vs: after a pass over vs, the state holds
// what it held before the pass.
func (s *StreamState) Reset(vs []graph.VertexID) {
	for _, v := range vs {
		s.Unassign(v)
	}
}

// Stream runs the weighted greedy streaming partitioner over g from a state
// that holds no vertex.
func Stream(g *graph.Graph, opt StreamOptions) (*StreamResult, error) {
	if err := checkArgs(g, opt.K); err != nil {
		return nil, err
	}
	return NewStreamState(g).Stream(opt)
}

// Stream is one pass of the weighted greedy streaming partitioner over the
// state's graph: it places opt.Vertices, none of them held, into K parts
// beside the vertices the state holds. A pass that fails leaves the state
// as it found it.
//
// A placement costs the arcs of its vertex plus the parts those arcs touch,
// not K. Three facts make that exact rather than approximate:
//
//   - A part no neighbour sits in scores −pen, and pen does not shrink as W
//     grows (γ > 1), so the best of them under "max score, then lower W,
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
func (s *StreamState) Stream(opt StreamOptions) (*StreamResult, error) {
	g := s.g
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
	if opt.Slack <= 0 {
		opt.Slack = DefaultSlack
	}
	for p := opt.K; p < len(s.vCount); p++ {
		if s.vCount[p] > 0 {
			return nil, fmt.Errorf("partition: piece %d is held, want pieces in [0,%d)", p, opt.K)
		}
	}
	s.grow(opt.K)
	parts := s.parts
	vCount, eCount := s.vCount[:opt.K], s.eCount[:opt.K]
	result := func(stats StreamStats) *StreamResult {
		return &StreamResult{Parts: parts, K: opt.K, VertexCount: slices.Clone(vCount), EdgeCount: slices.Clone(eCount), Stats: stats}
	}
	ns := len(opt.Vertices)
	if opt.Vertices == nil {
		ns = n
	}
	if ns == 0 {
		return result(StreamStats{}), nil
	}
	// A nil Vertices is the ID range, which no list holds: the loops over
	// the stream walk it idChunk IDs at a time, written into an array on
	// the pass's stack, and walk a list as one chunk, the list itself.
	var ids [idChunk]graph.VertexID
	var ms, lo int
	for chunk := nextChunk(opt.Vertices, nil, ids[:], n); len(chunk) > 0; chunk = nextChunk(opt.Vertices, chunk, ids[:], n) {
		for i, v := range chunk {
			if int(v) >= n {
				return nil, fmt.Errorf("partition: Vertices[%d] = %d, want < %d", lo+i, v, n)
			}
			if parts[v] != Unassigned {
				return nil, fmt.Errorf("partition: Vertices[%d] = %d is already held, in piece %d", lo+i, v, parts[v])
			}
			ms += g.OutDegree(v)
		}
		lo += len(chunk)
	}
	var nHeld, mHeld int
	for i := range vCount {
		nHeld += vCount[i]
		mHeld += eCount[i]
	}
	nAll, mAll := ns+nHeld, ms+mHeld // every vertex placed at the end, held and streamed
	avgDeg := float64(mAll) / float64(nAll)
	if metrics.IsZero(avgDeg) {
		avgDeg = 1 // edgeless vertex set: W_i degenerates to C·|V_i|+(1−C)·0
	}
	alpha := opt.Alpha
	if alpha <= 0 {
		alpha = float64(mAll) * math.Pow(float64(opt.K), gamma-1) / math.Pow(float64(nAll), gamma)
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

	s.w, s.affinity, s.touched = resize(s.w, opt.K), resize(s.affinity, opt.K), resize(s.touched, opt.K+1)
	s.pen, s.class = resize(s.pen, opt.K), resize(s.class, opt.K)
	w := s.w               // current W_i
	affinity := s.affinity // |V_i ∩ N(v)| scratch, zero between vertices
	touched := s.touched   // parts with affinity > 0, see tally
	// pen[i] = α·γ·√W_i, the penalty half of the score. Only the part
	// that just received a vertex has a new W_i, so one entry is refreshed
	// per placement instead of K being recomputed per vertex.
	pen, class := s.pen, s.class
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
	var inClass [skipCapE]int64
	for i := range pen {
		w[i] = opt.C*float64(vCount[i]) + (1-opt.C)*float64(eCount[i])/avgDeg
		pen[i] = alpha * gamma * math.Sqrt(w[i])
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
	s.byW.reset(class, lighter)
	s.byE.list = s.byE.list[:0]
	if opt.CapE > 0 {
		s.byE.reset(class, lighterE)
	}
	// Local copies share the state's buffers; as locals, the placement
	// loop's repairs need not reload their headers after every store.
	byW, byE := s.byW, s.byE

	// Stats accumulate in plain locals — the inner loop pays a handful of
	// integer increments whether or not telemetry is attached — and are
	// published once per stream.
	var capWSkips, capVSkips, capESkips, tieBreaks, fallbacks int64
	var sp telemetry.Span
	var audit *partaudit.StreamRecorder // nil, a no-op, when untraced
	if opt.Tracer != nil && opt.Tracer.Enabled() {
		sp = opt.Tracer.Span("partition.stream",
			telemetry.Int("k", opt.K),
			telemetry.Int("streamed", ns),
			telemetry.Int("edges", ms))
		if nHeld == 0 {
			audit = partaudit.NewStream(opt.Tracer, g, opt.K)
		}
	}
	for chunk := nextChunk(opt.Vertices, nil, ids[:], n); len(chunk) > 0; chunk = nextChunk(opt.Vertices, chunk, ids[:], n) {
		for pos, v := range chunk {
			if parts[v] != Unassigned {
				// Only a list, which is one chunk, can repeat a vertex.
				err := fmt.Errorf("partition: Vertices[%d] = %d is streamed twice", pos, v)
				if sp != nil {
					sp.End(telemetry.String("error", err.Error()))
				}
				s.Reset(chunk[:pos])
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
			dec := audit.SampleDecision(v, d)
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
			pen[best] = alpha * gamma * math.Sqrt(w[best])
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
			audit.Place(v, d, best, cause, dec, parts)
		}
	}
	audit.End()
	stats := StreamStats{
		Placed:    int64(ns),
		CapWSkips: capWSkips,
		CapVSkips: capVSkips,
		CapESkips: capESkips,
		TieBreaks: tieBreaks,
		Fallbacks: fallbacks,
	}
	stats.publish(sp)
	return result(stats), nil
}

// idChunk is how many IDs of the range a pass with a nil Vertices walks at
// a time.
const idChunk = 256

// nextChunk returns the chunk of a pass's stream after chunk, or its first
// when chunk is nil: a list is one chunk, and the ID range [0, n) (list
// nil) is walked in chunks of the IDs after chunk's last, written into
// buf, which may hold chunk.
func nextChunk(list, chunk, buf []graph.VertexID, n int) []graph.VertexID {
	if list != nil {
		if chunk == nil {
			return list
		}
		return nil
	}
	lo := 0
	if chunk != nil {
		lo = int(chunk[len(chunk)-1]) + 1
	}
	buf = buf[:min(len(buf), n-lo)]
	for i := range buf {
		buf[i] = graph.VertexID(lo + i)
	}
	return buf
}

// tally adds one adjacency row of the vertex being placed to affinity and
// lists each part on its first increment in touched[nt:], returning the new
// count. The store is unconditional and nt advances by a conditional move, so
// the loop has no branch on affinity; touched has one slot beyond K for the
// store made when every part is already listed.
//
// It stays out of line: inlined into the placement loop, whose chunk loop
// nests it one level deeper, its per-arc loop spilled its counters to the
// stack, and BenchmarkBPart20k and BenchmarkStreamByK ran 10–25 % slower.
//
//go:noinline
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

// reset makes o the open parts, those of class skipNone, sorted by less and
// then by index, by sinking each into the sorted tail behind it. It reuses
// o's buffers.
func (o *partOrder) reset(class []uint8, less func(a, b int) bool) {
	o.list, o.pos = resize(o.list, len(class))[:0], resize(o.pos, len(class))
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

// resize returns s with length n, reallocated only when n exceeds its
// capacity.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func fillUnassigned(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = Unassigned
	}
	return p
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
	tr telemetry.Tracer
}

// Name implements Partitioner.
func (Fennel) Name() string { return "Fennel" }

// SetTelemetry implements telemetry.Instrumentable: tr (may be nil)
// receives the stream's span and the audit events of every subsequent
// Partition call; reg (may be nil) is teed beside it. It needs a pointer
// instance, which the registry hands out.
func (f *Fennel) SetTelemetry(tr telemetry.Tracer, reg *telemetry.Registry) {
	f.tr = telemetry.Tee(tr, reg)
}

// Partition implements Partitioner. Like the original Fennel, the
// neighborhood N(v) is undirected: in-edges, read from g.In(), contribute
// to affinity.
func (f Fennel) Partition(g *graph.Graph, k int) (*Assignment, error) {
	if err := checkArgs(g, k); err != nil {
		return nil, err
	}
	tr := telemetry.Safe(f.tr)
	if tr.Enabled() {
		partaudit.Emit(tr, partaudit.NewHeader("Fennel", g, k))
	}
	res, err := Stream(g, StreamOptions{
		K:      k,
		C:      1, // vertex-only balance indicator: classic Fennel
		In:     g.In(),
		Tracer: tr,
	})
	if err != nil {
		return nil, err
	}
	auditFinal(tr, g, res.Parts, k)
	return &Assignment{Parts: res.Parts, K: k}, nil
}

// auditFinal emits the audit's closing record, when tr is enabled: the
// finished assignment's quality report, computed exactly as Evaluate
// computes it — which is what makes the timeline's final numbers and the
// Report equal by construction.
func auditFinal(tr telemetry.Tracer, g *graph.Graph, parts []int, k int) {
	if !tr.Enabled() {
		return
	}
	rep := metrics.NewReport(g, parts, k, false)
	partaudit.Emit(tr, partaudit.Final{
		K: k, V: rep.Vertices, E: rep.Edges,
		VBias: rep.VertexBias, EBias: rep.EdgeBias, CutRatio: rep.CutRatio,
	})
}

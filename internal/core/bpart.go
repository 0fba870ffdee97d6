// Package core implements BPart, the paper's contribution: a
// two-dimensional balanced graph partitioner (§3).
//
// BPart runs in two phases. The partitioning phase over-splits the graph
// into more pieces than the requested part count using the weighted
// streaming engine of internal/partition with the balance indicator
//
//	W_i = c·|V_i| + (1−c)·|E_i|/d̄            (Eq. 1, c = ½ by default)
//
// so that no piece is extreme in either dimension and — because equal W
// forces a trade-off — pieces with fewer vertices carry more edges and vice
// versa (Fig 8). The combining phase sorts pieces by vertex count and pairs
// the vertex-lightest (edge-heaviest) with the vertex-heaviest
// (edge-lightest), repeatedly, until the requested number of subgraphs
// remains. Combined subgraphs within the balance threshold in BOTH
// dimensions are frozen; the rest are dissolved and re-partitioned at the
// next layer with a doubled over-split factor (Fig 9), typically converging
// in two or three layers. A residual whose vertex or arc total already
// misses the band of the parts it must fill goes straight to the last
// layer, which freezes unconditionally.
package core

import (
	"fmt"
	"math"
	"sort"

	"bpart/internal/graph"
	"bpart/internal/metrics"
	"bpart/internal/partaudit"
	"bpart/internal/partition"
	"bpart/internal/telemetry"
)

// maxLayers caps the number of combining layers; the final layer accepts
// its result unconditionally.
const maxLayers = 4

// Config holds BPart's tuning knobs. The zero value selects the paper's
// defaults via Normalize. The streaming score (Eq. 2) always runs at the
// Fennel standards of internal/partition: auto α, γ=1.5, ν=1.1.
type Config struct {
	// C is the weighting factor c of Eq. 1 in [0,1]. Default 0.5.
	C float64
	// Epsilon is the per-dimension balance threshold: a combined subgraph
	// is final when both |V_i| and |E_i| are within (1±ε) of the global
	// per-part mean. Default 0.1 (matching the paper's "bias always
	// below 0.1").
	Epsilon float64
	// SplitFactor is the over-split base: layer ℓ splits the remaining
	// graph into SplitFactor^ℓ · N_r pieces. Must be a power of two ≥ 2.
	// Default 2 (the paper's 2N, then 4N_r, ...).
	SplitFactor int
	// DisableRefine turns off the final move-based refinement pass.
	// The pass (see refine.go) is an addition over the paper: it repairs
	// the residual imbalance left when the combining recursion hits
	// maxLayers, which happens when hub mass is too concentrated for
	// pairwise combining alone. Off, BPart is exactly the paper's
	// two-phase algorithm.
	DisableRefine bool
}

// Normalize fills defaults and validates the configuration. A Config whose
// numeric fields are all zero takes every numeric default, c=½ included;
// DisableRefine is kept as given.
func (c *Config) Normalize() error {
	if metrics.IsZero(c.C) && metrics.IsZero(c.Epsilon) && c.SplitFactor == 0 {
		off := c.DisableRefine
		*c = Default()
		c.DisableRefine = off
		return nil
	}
	if c.C < 0 || c.C > 1 {
		return fmt.Errorf("core: C = %v, want in [0,1]", c.C)
	}
	if c.Epsilon <= 0 {
		c.Epsilon = 0.1
	}
	if c.SplitFactor == 0 {
		c.SplitFactor = 2
	}
	if c.SplitFactor < 2 || c.SplitFactor&(c.SplitFactor-1) != 0 {
		return fmt.Errorf("core: SplitFactor = %d, want a power of two ≥ 2", c.SplitFactor)
	}
	return nil
}

// Default returns the paper's default configuration: c=½, ε=0.1, 2× split.
func Default() Config {
	return Config{C: 0.5, Epsilon: 0.1, SplitFactor: 2}
}

// BPart is the two-dimensional balanced partitioner. It implements
// partition.Partitioner and telemetry.Instrumentable.
type BPart struct {
	cfg Config
	tr  telemetry.Tracer
}

// New returns a BPart with the given configuration. An all-zero Config
// selects the defaults.
func New(cfg Config) (*BPart, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	return &BPart{cfg: cfg, tr: telemetry.Nop()}, nil
}

// SetTelemetry implements telemetry.Instrumentable: tr (may be nil)
// receives one span per Partition call, per combining layer, per layer
// stream and per refine pass, and the audit events (see partaudit): the
// sampled decisions, streaming quality timeline and combining tree of
// every subsequent Partition call. reg (may be nil) is teed beside it (see
// telemetry.Instrumentable). Tracing is pure observation — the traced
// assignment is identical to an untraced one.
func (b *BPart) SetTelemetry(tr telemetry.Tracer, reg *telemetry.Registry) {
	b.tr = telemetry.Tee(tr, reg)
}

// Name implements partition.Partitioner.
func (*BPart) Name() string { return "BPart" }

// Config returns the normalized configuration.
func (b *BPart) Config() Config { return b.cfg }

// LayerTrace records what one layer of the two-phase process did; the
// experiment harness uses it for Fig 8 (piece-level distributions) and the
// convergence ablation.
type LayerTrace struct {
	Layer  int
	Pieces int
	PieceV []int // per-piece |V_i| after the partitioning phase
	PieceE []int // per-piece |E_i|
	// Groups are this layer's combined groups, as the audit.layer event
	// reports them: sizes, deviations and the final part each froze into.
	// A traced run emits this same slice, and each group's Pieces is shared
	// with the combining rounds, so neither is to be modified.
	Groups      []partaudit.LayerGroup
	Finalized   int // groups frozen at this layer
	RemainingNr int // groups dissolved into the next layer
}

// Trace is the full history of a PartitionWithTrace call.
type Trace struct {
	Layers []LayerTrace
}

// Partition implements partition.Partitioner.
func (b *BPart) Partition(g *graph.Graph, k int) (*partition.Assignment, error) {
	a, _, err := b.PartitionWithTrace(g, k)
	return a, err
}

// PartitionWithTrace partitions g into k two-dimensionally balanced
// subgraphs and returns the per-layer trace.
func (b *BPart) PartitionWithTrace(g *graph.Graph, k int) (*partition.Assignment, *Trace, error) {
	if b.cfg == (Config{}) {
		// The zero BPart, made without New: the paper's defaults, as New
		// gives an all-zero Config.
		b = &BPart{cfg: Default(), tr: b.tr}
	}
	if g == nil {
		return nil, nil, fmt.Errorf("core: nil graph")
	}
	if k <= 0 {
		return nil, nil, fmt.Errorf("core: k = %d, want > 0", k)
	}
	n := g.NumVertices()
	final := make([]int, n)
	for i := range final {
		final[i] = partition.Unassigned
	}
	if k == 1 || n == 0 {
		// Nothing to balance: one part, or (as every other scheme answers
		// the empty graph) the empty k-part assignment.
		for i := range final {
			final[i] = 0
		}
		return &partition.Assignment{Parts: final, K: k}, &Trace{}, nil
	}

	targetV := float64(n) / float64(k)
	targetE := float64(g.NumEdges()) / float64(k)
	trace := &Trace{}
	tr := telemetry.Safe(b.tr)
	runSpan := tr.Span("bpart.partition",
		telemetry.Int("k", k),
		telemetry.Int("vertices", n),
		telemetry.Int("edges", g.NumEdges()))
	// Undirected affinity (Fennel's N(v)) reads the graph's own reverse. A
	// first In call builds it, here, outside every layer span.
	in := g.In()
	audit := tr.Enabled()
	if audit {
		partaudit.Emit(tr, partaudit.NewHeader("BPart", g, k))
	}

	remaining := make([]graph.VertexID, n)
	for v := range remaining {
		remaining[v] = graph.VertexID(v)
	}
	// Every layer streams through one state, empty between layers: the
	// freeze loop below takes each residual vertex back out as it reads its
	// piece, so a layer costs its residual, not |V|.
	st := partition.NewStreamState(g)
	nr := k        // parts still to produce
	nextFinal := 0 // next final part id

	// Parts still wanted once every vertex is frozen stay empty: with more
	// parts than vertices (k > n) the one-vertex groups freeze and the empty
	// ones never can, the shape every other scheme gives.
	for layer := 1; nr > 0 && len(remaining) > 0; layer++ {
		ms := 0 // Σ out-degree of the residual: its |E| and the stream's CapE
		for _, v := range remaining {
			ms += g.OutDegree(v)
		}
		// A residual whose totals miss nr parts' band cannot freeze all nr
		// groups, so a layer before the last would be streamed only to be
		// dissolved (Fig 9's recursion). Run the last layer now, at the
		// piece count it would have had: the skipped layers' numbers stay
		// unused, the only record of the jump (DESIGN.md, addition 7).
		if layer < maxLayers && nr > 1 && !b.fits(len(remaining), ms, float64(nr)*targetV, float64(nr)*targetE) {
			layer = maxLayers
		}
		last := layer >= maxLayers || nr == 1
		pieces := b.layerPieces(layer, nr, len(remaining))
		layerSpan := tr.Span("bpart.layer",
			telemetry.Int("layer", layer),
			telemetry.Int("pieces", pieces),
			telemetry.Int("oversplit", pieces/nr),
			telemetry.Int("remaining_vertices", len(remaining)),
			telemetry.Int("parts_wanted", nr))
		// The stream's span and audit events carry their layer.
		res, err := b.streamLayer(st, in, remaining, ms, pieces, telemetry.With(tr, telemetry.Int("layer", layer)))
		if err != nil {
			layerSpan.End(telemetry.String("error", err.Error()))
			runSpan.End(telemetry.String("error", err.Error()))
			return nil, nil, fmt.Errorf("core: layer %d stream: %w", layer, err)
		}
		lt := LayerTrace{
			Layer:  layer,
			Pieces: pieces,
			PieceV: res.VertexCount,
			PieceE: res.EdgeCount,
		}

		groups := make([]group, pieces)
		for i := range groups {
			groups[i] = group{v: res.VertexCount[i], e: res.EdgeCount[i], pieces: []int{i}}
		}
		// Combining rounds (Fig 9): each round at most halves the group
		// count, pairing vertex-lightest with vertex-heaviest, until
		// exactly nr groups remain. With the unclamped piece count this
		// takes layer·log2(SplitFactor) rounds.
		round := 0
		for len(groups) > nr {
			target := (len(groups) + 1) / 2
			if target < nr {
				target = nr
			}
			var emit func(a, b group)
			if audit {
				r := round
				emit = func(x, y group) {
					partaudit.Emit(tr, partaudit.Merge{
						Layer:   layer,
						Round:   r,
						APieces: append([]int(nil), x.pieces...),
						AV:      x.v, AE: x.e,
						BPieces: append([]int(nil), y.pieces...),
						BV:      y.v, BE: y.e,
					})
				}
			}
			groups = combineRound(groups, target, emit)
			round++
		}

		// Freeze balanced groups; dissolve the rest. The group record is
		// the layer's one outcome: the trace, the audit event and the
		// layer span all read it.
		pieceToFinal := make([]int, pieces)
		for i := range pieceToFinal {
			pieceToFinal[i] = partition.Unassigned
		}
		lt.Groups = make([]partaudit.LayerGroup, len(groups))
		piecesFrozen := 0
		var vBias, eBias float64 // worst group deviation: Fig 9's convergence criterion
		for i, grp := range groups {
			lg := partaudit.LayerGroup{
				Pieces: grp.pieces, V: grp.v, E: grp.e, Final: -1,
				VDev: math.Abs(float64(grp.v)-targetV) / targetV,
			}
			if targetE > 0 {
				lg.EDev = math.Abs(float64(grp.e)-targetE) / targetE
			}
			if last || b.fits(grp.v, grp.e, targetV, targetE) {
				for _, p := range grp.pieces {
					pieceToFinal[p] = nextFinal
				}
				lg.Final = nextFinal
				nextFinal++
				lt.Finalized++
				piecesFrozen += len(grp.pieces)
			}
			lt.Groups[i] = lg
			vBias, eBias = max(vBias, lg.VDev), max(eBias, lg.EDev)
		}
		if audit {
			partaudit.Emit(tr, partaudit.LayerRecord{
				Layer:   layer,
				Pieces:  pieces,
				TargetV: targetV,
				TargetE: targetE,
				Epsilon: b.cfg.Epsilon,
				Groups:  lt.Groups,
			})
		}
		// Map vertices of frozen groups to their final part; keep the
		// rest for the next layer, in place and in ID order for stream
		// locality (the write index never passes the read index). Reading
		// a vertex's piece empties it from the state.
		kept := remaining[:0]
		for _, v := range remaining {
			if f := pieceToFinal[st.Unassign(v)]; f != partition.Unassigned {
				final[v] = f
			} else {
				kept = append(kept, v)
			}
		}
		remaining = kept
		nr -= lt.Finalized
		lt.RemainingNr = nr
		trace.Layers = append(trace.Layers, lt)
		layerSpan.End(
			telemetry.Int("pieces_frozen", piecesFrozen),
			telemetry.Int("groups_frozen", lt.Finalized),
			telemetry.Int("parts_remaining", nr),
			telemetry.Float("residual_v_bias", vBias),
			telemetry.Float("residual_e_bias", eBias))
	}
	var moves refineMoves
	if !b.cfg.DisableRefine {
		refineSpan := tr.Span("bpart.refine", telemetry.Int("k", k))
		moves = rebalance(g, final, k, b.cfg.Epsilon)
		refineSpan.End(
			telemetry.Int("shed_moves", moves.Shed),
			telemetry.Int("pull_moves", moves.Pulled))
	}
	a := &partition.Assignment{Parts: final, K: k}
	if err := a.Validate(g); err != nil {
		runSpan.End(telemetry.String("error", err.Error()))
		return nil, nil, fmt.Errorf("core: internal error: %w", err)
	}
	runSpan.End(
		telemetry.Int("layers", len(trace.Layers)),
		telemetry.Int("refine_moves", moves.Shed+moves.Pulled))
	if audit {
		// The closing record is computed exactly as Evaluate computes its
		// Report, so the audit timeline ends on the numbers the evaluation
		// reports. The predicted sizes are the frozen groups' (the gap is
		// what refine repaired).
		predV, predE := make([]int, k), make([]int, k)
		for _, l := range trace.Layers {
			for _, lg := range l.Groups {
				if lg.Final >= 0 {
					predV[lg.Final], predE[lg.Final] = lg.V, lg.E
				}
			}
		}
		rep := metrics.NewReport(g, final, k, false)
		partaudit.Emit(tr, partaudit.Final{
			K: k, V: rep.Vertices, E: rep.Edges,
			VBias: rep.VertexBias, EBias: rep.EdgeBias, CutRatio: rep.CutRatio,
			PredictedV: predV, PredictedE: predE,
			RefineMoves: moves.Shed + moves.Pulled,
		})
	}
	return a, trace, nil
}

// layerPieces is the piece count of a layer streaming r remaining vertices
// for nr parts: nr·SplitFactor^layer, but never more pieces than vertices
// nor fewer than parts.
func (b *BPart) layerPieces(layer, nr, r int) int {
	return max(min(nr*pow(b.cfg.SplitFactor, layer), r), nr)
}

// streamLayer is one layer's partitioning phase: the remaining vertices
// (ms out-arcs in all) streamed through st, in the given order, into pieces
// under per-piece |V_i| and |E_i| caps at the slack, with undirected
// affinity read from in = g.In().
func (b *BPart) streamLayer(st *partition.StreamState, in *graph.Graph, remaining []graph.VertexID, ms, pieces int, tr telemetry.Tracer) (*partition.StreamResult, error) {
	return st.Stream(partition.StreamOptions{
		K:        pieces,
		C:        b.cfg.C,
		Vertices: remaining,
		CapV:     int(partition.DefaultSlack*float64(len(remaining))/float64(pieces)) + 1,
		CapE:     int(partition.DefaultSlack*float64(ms)/float64(pieces)) + 1,
		In:       in,
		Tracer:   tr,
	})
}

// group is a set of pieces destined for one final subgraph.
type group struct {
	v, e   int
	pieces []int
}

// combineRound sorts groups by vertex count and merges the lightest with
// the heaviest (the paper's pairing rule exploiting the inverse
// proportionality of |V_i| and |E_i|), merging just enough pairs to reach
// target groups. Unpaired middle groups pass through unchanged. onMerge,
// when non-nil, observes each pairing (vertex-lightest side first) for
// the combining audit tree.
func combineRound(groups []group, target int, onMerge func(a, b group)) []group {
	if target >= len(groups) {
		return groups
	}
	sort.Slice(groups, func(i, j int) bool {
		if groups[i].v != groups[j].v {
			return groups[i].v < groups[j].v
		}
		return groups[i].e > groups[j].e
	})
	merges := len(groups) - target
	out := make([]group, 0, target)
	for i := 0; i < merges; i++ {
		a, b := groups[i], groups[len(groups)-1-i]
		if onMerge != nil {
			onMerge(a, b)
		}
		out = append(out, group{
			v:      a.v + b.v,
			e:      a.e + b.e,
			pieces: append(append([]int(nil), a.pieces...), b.pieces...),
		})
	}
	out = append(out, groups[merges:len(groups)-merges]...)
	return out
}

// fits reports whether v vertices and e arcs are within (1±ε) of the
// targets in both dimensions: a group of the per-part means freezes, and a
// residual of nr parts' means can still freeze all nr.
func (b *BPart) fits(v, e int, targetV, targetE float64) bool {
	eps := b.cfg.Epsilon
	if math.Abs(float64(v)-targetV) > eps*targetV {
		return false
	}
	if metrics.IsZero(targetE) {
		return true
	}
	return math.Abs(float64(e)-targetE) <= eps*targetE
}

func pow(base, exp int) int {
	out := 1
	for i := 0; i < exp; i++ {
		out *= base
		if out > 1<<30 {
			return 1 << 30
		}
	}
	return out
}

func init() {
	partition.Register("BPart", func() partition.Partitioner {
		b, err := New(Default())
		if err != nil {
			panic(err) // Default() always normalizes
		}
		return b
	})
}

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
// in two or three layers.
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

// Config holds BPart's tuning knobs. The zero value selects the paper's
// defaults via Normalize.
type Config struct {
	// C is the weighting factor c of Eq. 1 in [0,1]. Default 0.5.
	C float64
	// Alpha, Gamma, Slack tune the streaming score (Eq. 2); non-positive
	// values select the Fennel standards (auto α, γ=1.5, ν=1.1).
	Alpha, Gamma, Slack float64
	// Epsilon is the per-dimension balance threshold: a combined subgraph
	// is final when both |V_i| and |E_i| are within (1±ε) of the global
	// per-part mean. Default 0.1 (matching the paper's "bias always
	// below 0.1").
	Epsilon float64
	// SplitFactor is the over-split base: layer ℓ splits the remaining
	// graph into SplitFactor^ℓ · N_r pieces. Must be a power of two ≥ 2.
	// Default 2 (the paper's 2N, then 4N_r, ...).
	SplitFactor int
	// MaxLayers caps the number of combining layers; the final layer
	// accepts its result unconditionally. Default 4.
	MaxLayers int
	// DisableRefine turns off the final move-based refinement pass.
	// The pass (see refine.go) is an addition over the paper: it repairs
	// the residual imbalance left when the combining recursion hits
	// MaxLayers, which happens when hub mass is too concentrated for
	// pairwise combining alone. Off, BPart is exactly the paper's
	// two-phase algorithm.
	DisableRefine bool
}

// Normalize fills defaults and validates the configuration.
func (c *Config) Normalize() error {
	if metrics.IsZero(c.C) && metrics.IsZero(c.Alpha) && metrics.IsZero(c.Gamma) &&
		metrics.IsZero(c.Slack) && metrics.IsZero(c.Epsilon) && c.SplitFactor == 0 && c.MaxLayers == 0 {
		*c = Default()
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
	if c.MaxLayers <= 0 {
		c.MaxLayers = 4
	}
	return nil
}

// Default returns the paper's default configuration: c=½, ε=0.1, 2× split,
// up to 4 layers, standard Fennel streaming parameters.
func Default() Config {
	return Config{C: 0.5, Epsilon: 0.1, SplitFactor: 2, MaxLayers: 4}
}

// BPart is the two-dimensional balanced partitioner. It implements
// partition.Partitioner and telemetry.Instrumentable.
type BPart struct {
	cfg Config
	tr  telemetry.Tracer
	aud *partaudit.Auditor
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
// stream and per refine pass; reg (may be nil) is teed beside it (see
// telemetry.Instrumentable).
func (b *BPart) SetTelemetry(tr telemetry.Tracer, reg *telemetry.Registry) {
	b.tr = telemetry.Tee(tr, reg)
}

// SetAudit implements partaudit.Auditable: a (may be nil, detaching)
// receives the decision log, streaming quality timeline and combining
// audit tree of every subsequent Partition call. Auditing is pure
// observation — the audited assignment is identical to an unaudited one.
func (b *BPart) SetAudit(a *partaudit.Auditor) { b.aud = a }

// Name implements partition.Partitioner.
func (*BPart) Name() string { return "BPart" }

// Config returns the normalized configuration.
func (b *BPart) Config() Config { return b.cfg }

// LayerTrace records what one layer of the two-phase process did; the
// experiment harness uses it for Fig 8 (piece-level distributions) and the
// convergence ablation.
type LayerTrace struct {
	Layer       int
	Pieces      int
	PieceV      []int // per-piece |V_i| after the partitioning phase
	PieceE      []int // per-piece |E_i|
	CombinedV   []int // per-group |V_i| after this layer's combining rounds
	CombinedE   []int
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
	b.aud.Begin("BPart", g, k)
	// Per-part sizes predicted at combining freeze time, for the audit's
	// predicted-vs-actual comparison (the gap is what refine repaired).
	var predV, predE []int
	if b.aud != nil {
		predV = make([]int, k)
		predE = make([]int, k)
	}

	remaining := make([]graph.VertexID, n)
	for v := range remaining {
		remaining[v] = graph.VertexID(v)
	}
	nr := k        // parts still to produce
	nextFinal := 0 // next final part id

	// Parts still wanted once every vertex is frozen stay empty: with more
	// parts than vertices (k > n) the one-vertex groups freeze and the empty
	// ones never can, the shape every other scheme gives.
	for layer := 1; nr > 0 && len(remaining) > 0; layer++ {
		last := layer >= b.cfg.MaxLayers || nr == 1
		pieces := nr * pow(b.cfg.SplitFactor, layer)
		// Never use more pieces than remaining vertices.
		if pieces > len(remaining) {
			pieces = len(remaining)
		}
		if pieces < nr {
			pieces = nr
		}
		slack := b.cfg.Slack
		if slack <= 0 {
			slack = 1.1
		}
		var ms int
		for _, v := range remaining {
			ms += g.OutDegree(v)
		}
		layerSpan := tr.Span("bpart.layer",
			telemetry.Int("layer", layer),
			telemetry.Int("pieces", pieces),
			telemetry.Int("oversplit", pieces/nr),
			telemetry.Int("remaining_vertices", len(remaining)),
			telemetry.Int("parts_wanted", nr))
		res, err := partition.Stream(g, partition.StreamOptions{
			K:        pieces,
			C:        b.cfg.C,
			Alpha:    b.cfg.Alpha,
			Gamma:    b.cfg.Gamma,
			Slack:    b.cfg.Slack,
			Vertices: remaining,
			CapV:     int(slack*float64(len(remaining))/float64(pieces)) + 1,
			CapE:     int(slack*float64(ms)/float64(pieces)) + 1,
			In:       in,
			Tracer:   b.tr,
			Audit:    b.aud.Stream(layer, g, pieces),
		})
		if err != nil {
			layerSpan.End(telemetry.String("error", err.Error()))
			runSpan.End(telemetry.String("error", err.Error()))
			return nil, nil, fmt.Errorf("core: layer %d stream: %w", layer, err)
		}
		lt := LayerTrace{
			Layer:  layer,
			Pieces: pieces,
			PieceV: append([]int(nil), res.VertexCount...),
			PieceE: append([]int(nil), res.EdgeCount...),
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
			if b.aud != nil {
				r := round
				emit = func(x, y group) {
					b.aud.Combine(partaudit.Merge{
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

		// Freeze balanced groups; dissolve the rest.
		pieceToFinal := make([]int, pieces)
		for i := range pieceToFinal {
			pieceToFinal[i] = partition.Unassigned
		}
		var nextRemainingGroups []group
		var auditGroups []partaudit.LayerGroup
		for _, grp := range groups {
			lt.CombinedV = append(lt.CombinedV, grp.v)
			lt.CombinedE = append(lt.CombinedE, grp.e)
			froze := last || b.balanced(grp, targetV, targetE)
			if froze {
				for _, p := range grp.pieces {
					pieceToFinal[p] = nextFinal
				}
				if b.aud != nil {
					predV[nextFinal] = grp.v
					predE[nextFinal] = grp.e
				}
				nextFinal++
				lt.Finalized++
			} else {
				nextRemainingGroups = append(nextRemainingGroups, grp)
			}
			if b.aud != nil {
				ag := partaudit.LayerGroup{
					Pieces: append([]int(nil), grp.pieces...),
					V:      grp.v,
					E:      grp.e,
					Final:  -1,
				}
				if froze {
					ag.Final = nextFinal - 1
				}
				if targetV > 0 {
					ag.VDev = math.Abs(float64(grp.v)-targetV) / targetV
				}
				if targetE > 0 {
					ag.EDev = math.Abs(float64(grp.e)-targetE) / targetE
				}
				auditGroups = append(auditGroups, ag)
			}
		}
		if b.aud != nil {
			b.aud.Layer(partaudit.LayerRecord{
				Layer:   layer,
				Pieces:  pieces,
				TargetV: targetV,
				TargetE: targetE,
				Epsilon: b.cfg.Epsilon,
				Groups:  auditGroups,
			})
		}
		// Map vertices of frozen groups to their final part; collect the
		// rest for the next layer, preserving ID order for stream
		// locality.
		var nextRemaining []graph.VertexID
		for _, v := range remaining {
			p := res.Parts[v]
			if f := pieceToFinal[p]; f != partition.Unassigned {
				final[v] = f
			} else {
				nextRemaining = append(nextRemaining, v)
			}
		}
		nr -= lt.Finalized
		lt.RemainingNr = nr
		trace.Layers = append(trace.Layers, lt)
		remaining = nextRemaining
		// Residual bias of this layer's combined groups against the
		// global per-part means: the quantity that decides which groups
		// froze (Fig 9's convergence criterion).
		vBias, eBias := residualBias(lt.CombinedV, lt.CombinedE, targetV, targetE)
		layerSpan.End(
			telemetry.Int("pieces_frozen", pieces-pieceCount(nextRemainingGroups)),
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
	if b.aud != nil {
		// The closing record is computed exactly as Evaluate computes its
		// Report, so the audit timeline ends on the numbers the evaluation
		// reports.
		rep := metrics.NewReport(g, final, k, false)
		b.aud.Final(partaudit.Final{
			K: k, V: rep.Vertices, E: rep.Edges,
			VBias: rep.VertexBias, EBias: rep.EdgeBias, CutRatio: rep.CutRatio,
			PredictedV: predV, PredictedE: predE,
			RefineMoves: moves.Shed + moves.Pulled,
		})
	}
	return a, trace, nil
}

// group is a set of pieces destined for one final subgraph.
type group struct {
	v, e   int
	pieces []int
}

// pieceCount sums the streamed pieces held by the groups.
func pieceCount(groups []group) int {
	total := 0
	for _, g := range groups {
		total += len(g.pieces)
	}
	return total
}

// residualBias returns the worst per-group deviation from the global
// per-part |V| and |E| targets, as a fraction of the target.
func residualBias(vs, es []int, targetV, targetE float64) (vBias, eBias float64) {
	for _, v := range vs {
		if d := math.Abs(float64(v)-targetV) / targetV; d > vBias {
			vBias = d
		}
	}
	if targetE > 0 {
		for _, e := range es {
			if d := math.Abs(float64(e)-targetE) / targetE; d > eBias {
				eBias = d
			}
		}
	}
	return vBias, eBias
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

// balanced reports whether a group is within (1±ε) of both per-part means.
func (b *BPart) balanced(grp group, targetV, targetE float64) bool {
	eps := b.cfg.Epsilon
	if math.Abs(float64(grp.v)-targetV) > eps*targetV {
		return false
	}
	if metrics.IsZero(targetE) {
		return true
	}
	return math.Abs(float64(grp.e)-targetE) <= eps*targetE
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

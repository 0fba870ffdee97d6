// Package multilevel implements a simplified offline multilevel graph
// partitioner in the style of Mt-KaHIP (Akhremtsev, Sanders, Schulz; TPDS
// 2020), which §4.2 of the paper uses as the offline baseline:
//
//  1. Coarsening — size-constrained label propagation clusters the graph,
//     clusters are contracted into weighted super-vertices, repeatedly,
//     until the graph is small.
//  2. Initial partitioning — longest-processing-time (LPT) assignment of
//     super-vertices to k parts balances the vertex weight.
//  3. Uncoarsening — labels are projected back level by level, with
//     FM-style local refinement moving boundary vertices to reduce the cut
//     subject to a vertex-balance constraint.
//
// Like the real Mt-KaHIP (and unlike BPart), the balance objective is
// one-dimensional: vertex count. The paper reports vertex bias ≈ 0.03 but
// edge bias up to 2.59 for Mt-KaHIP on its graphs; this implementation
// reproduces that asymmetry.
package multilevel

import (
	"fmt"
	"sort"

	"bpart/internal/graph"
	"bpart/internal/partition"
	"bpart/internal/telemetry"
)

// The partitioner's fixed tuning.
const (
	// imbalance is the allowed vertex-weight imbalance ε: every part stays
	// ≤ (1+ε)·n/k. 0.03 is KaHIP's default.
	imbalance = 0.03
	// coarsestPerPart stops coarsening once the graph has at most
	// coarsestPerPart·k super-vertices.
	coarsestPerPart = 30
	// labelIters is the number of label-propagation sweeps per coarsening
	// level.
	labelIters = 3
	// refineIters is the number of refinement sweeps per uncoarsening level.
	refineIters = 2
	// maxLevels caps the coarsening depth.
	maxLevels = 20
)

// Multilevel is the offline partitioner. It implements
// partition.Partitioner and telemetry.Instrumentable.
type Multilevel struct {
	tr telemetry.Tracer
}

// New returns a Multilevel partitioner.
func New() *Multilevel {
	return &Multilevel{tr: telemetry.Nop()}
}

// SetTelemetry implements telemetry.Instrumentable: tr (may be nil)
// receives one span per Partition call plus per-phase coarsen/initial/
// refine spans; reg (may be nil) is teed beside it (see
// telemetry.Instrumentable).
func (m *Multilevel) SetTelemetry(tr telemetry.Tracer, reg *telemetry.Registry) {
	m.tr = telemetry.Tee(tr, reg)
}

// Name implements partition.Partitioner.
func (*Multilevel) Name() string { return "Multilevel" }

// level is one rung of the coarsening hierarchy.
type level struct {
	g       *graph.Graph
	weight  []int // super-vertex weight = number of original vertices
	cluster []int // cluster id of each vertex, mapping to the next level
}

// Partition implements partition.Partitioner.
func (m *Multilevel) Partition(g *graph.Graph, k int) (*partition.Assignment, error) {
	if g == nil {
		return nil, fmt.Errorf("multilevel: nil graph")
	}
	if k <= 0 {
		return nil, fmt.Errorf("multilevel: k = %d, want > 0", k)
	}
	n := g.NumVertices()
	if n == 0 {
		return &partition.Assignment{Parts: []int{}, K: k}, nil
	}

	tr := telemetry.Safe(m.tr)
	runSpan := tr.Span("multilevel.partition",
		telemetry.Int("k", k),
		telemetry.Int("vertices", n),
		telemetry.Int("edges", g.NumEdges()))

	// --- Coarsening ---
	coarsenSpan := tr.Span("multilevel.coarsen")
	levels := []level{{g: g, weight: ones(n)}}
	clusterCap := n/(4*k) + 1
	for len(levels) < maxLevels {
		cur := &levels[len(levels)-1]
		if cur.g.NumVertices() <= coarsestPerPart*k {
			break
		}
		labels := labelPropagation(cur.g, cur.weight, clusterCap, labelIters)
		next, clusters, reduced := contract(cur.g, cur.weight, labels)
		if !reduced {
			break
		}
		cur.cluster = clusters
		levels = append(levels, next)
	}
	coarse := levels[len(levels)-1]
	coarsenSpan.End(
		telemetry.Int("levels", len(levels)),
		telemetry.Int("coarsest_vertices", coarse.g.NumVertices()),
		telemetry.Int("coarsest_edges", coarse.g.NumEdges()))

	// --- Initial partitioning (LPT on the coarsest level) ---
	initSpan := tr.Span("multilevel.initial",
		telemetry.Int("super_vertices", coarse.g.NumVertices()))
	parts := lptAssign(coarse.weight, k)
	initSpan.End()

	// --- Uncoarsening + refinement ---
	maxWeight := int(float64(n)/float64(k)*(1+imbalance)) + 1
	totalMoves := 0
	for li := len(levels) - 1; li >= 0; li-- {
		lv := levels[li]
		refineSpan := tr.Span("multilevel.refine",
			telemetry.Int("level", li),
			telemetry.Int("vertices", lv.g.NumVertices()))
		levelMoves := 0
		for it := 0; it < refineIters; it++ {
			moved := refinePass(lv.g, lv.weight, parts, k, maxWeight)
			levelMoves += moved
			if moved == 0 {
				break
			}
		}
		refineSpan.End(telemetry.Int("moves", levelMoves))
		totalMoves += levelMoves
		if li > 0 {
			// Project onto the finer level below.
			finer := levels[li-1]
			projected := make([]int, finer.g.NumVertices())
			for v := range projected {
				projected[v] = parts[finer.cluster[v]]
			}
			parts = projected
		}
	}
	a := &partition.Assignment{Parts: parts, K: k}
	if err := a.Validate(g); err != nil {
		runSpan.End(telemetry.String("error", err.Error()))
		return nil, fmt.Errorf("multilevel: internal error: %w", err)
	}
	runSpan.End(
		telemetry.Int("levels", len(levels)),
		telemetry.Int("refine_moves", totalMoves))
	return a, nil
}

func ones(n int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// labelPropagation runs size-constrained label propagation: each vertex
// adopts the label most common among its out-neighbors, provided the
// adopting cluster stays within weightCap.
func labelPropagation(g *graph.Graph, weight []int, weightCap, iters int) []int {
	n := g.NumVertices()
	labels := make([]int, n)
	clusterWeight := make([]int, n)
	for v := 0; v < n; v++ {
		labels[v] = v
		clusterWeight[v] = weight[v]
	}
	counts := map[int]int{}
	for it := 0; it < iters; it++ {
		moved := 0
		for v := 0; v < n; v++ {
			ns := g.Neighbors(graph.VertexID(v))
			if len(ns) == 0 {
				continue
			}
			clear(counts)
			for _, u := range ns {
				counts[labels[u]]++
			}
			cur := labels[v]
			best, bestCount := cur, counts[cur]
			// Map iteration order is randomized; break count ties by
			// smallest label so runs are reproducible.
			for l, c := range counts {
				if l == cur {
					continue
				}
				if (c > bestCount || (c == bestCount && l < best)) &&
					clusterWeight[l]+weight[v] <= weightCap {
					best, bestCount = l, c
				}
			}
			if best != cur {
				clusterWeight[cur] -= weight[v]
				clusterWeight[best] += weight[v]
				labels[v] = best
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
	return labels
}

// contract merges each cluster into one super-vertex, dropping
// intra-cluster arcs. reduced is false when no shrinkage happened.
func contract(g *graph.Graph, weight, labels []int) (level, []int, bool) {
	n := g.NumVertices()
	dense := make(map[int]int)
	clusters := make([]int, n)
	for v := 0; v < n; v++ {
		id, ok := dense[labels[v]]
		if !ok {
			id = len(dense)
			dense[labels[v]] = id
		}
		clusters[v] = id
	}
	cn := len(dense)
	if cn >= n {
		return level{}, nil, false
	}
	cw := make([]int, cn)
	for v := 0; v < n; v++ {
		cw[clusters[v]] += weight[v]
	}
	b := graph.NewBuilder(cn)
	g.Edges(func(e graph.Edge) bool {
		cu, cv := clusters[e.Src], clusters[e.Dst]
		if cu != cv {
			b.AddEdge(graph.VertexID(cu), graph.VertexID(cv))
		}
		return true
	})
	return level{g: b.Build(), weight: cw}, clusters, true
}

// lptAssign distributes weighted items over k parts, heaviest first onto
// the lightest part — the classic longest-processing-time heuristic.
func lptAssign(weight []int, k int) []int {
	n := len(weight)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// Sort by weight descending (stable by index for determinism).
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if weight[a] != weight[b] {
			return weight[a] > weight[b]
		}
		return a < b
	})
	parts := make([]int, n)
	load := make([]int, k)
	for _, v := range order {
		best := 0
		for p := 1; p < k; p++ {
			if load[p] < load[best] {
				best = p
			}
		}
		parts[v] = best
		load[best] += weight[v]
	}
	return parts
}

// refinePass moves boundary vertices to the neighboring part with the
// highest arc affinity when that strictly reduces the cut and respects the
// balance cap. It returns the number of vertices moved.
func refinePass(g *graph.Graph, weight, parts []int, k, maxWeight int) int {
	load := make([]int, k)
	for v, p := range parts {
		load[p] += weight[v]
	}
	counts := make([]int, k)
	moved := 0
	for v := 0; v < g.NumVertices(); v++ {
		ns := g.Neighbors(graph.VertexID(v))
		if len(ns) == 0 {
			continue
		}
		for i := range counts {
			counts[i] = 0
		}
		boundary := false
		cur := parts[v]
		for _, u := range ns {
			counts[parts[u]]++
			if parts[u] != cur {
				boundary = true
			}
		}
		if !boundary {
			continue
		}
		best, bestCount := cur, counts[cur]
		for p := 0; p < k; p++ {
			if p == cur || counts[p] <= bestCount {
				continue
			}
			if load[p]+weight[v] <= maxWeight {
				best, bestCount = p, counts[p]
			}
		}
		if best != cur {
			load[cur] -= weight[v]
			load[best] += weight[v]
			parts[v] = best
			moved++
		}
	}
	return moved
}

func init() {
	partition.Register("Multilevel", func() partition.Partitioner { return New() })
}

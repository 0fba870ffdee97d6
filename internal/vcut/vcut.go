// Package vcut implements vertex-cut graph partitioning, the second family
// the paper surveys in §5: instead of assigning vertices and cutting
// edges, vertex-cut schemes assign *edges* to parts and replicate any
// vertex whose edges span several parts (PowerGraph, PowerLyra, HDRF).
// The communication metric of this family is the replication factor —
// the average number of copies per vertex — in place of the edge-cut
// ratio.
//
// Implemented schemes:
//
//   - RandomEdge — hash each edge (PowerGraph's default oblivious-free
//     baseline); perfect edge balance, worst replication.
//   - DBH — degree-based hashing (Xie et al., NeurIPS'14): hash on the
//     lower-degree endpoint, so hubs (whose replication is unavoidable)
//     absorb the cuts and low-degree vertices stay whole.
//   - Greedy — PowerGraph's streaming heuristic: prefer parts already
//     holding both endpoints, then one, then the lightest part.
//   - HDRF — High-Degree Replicated First (Petroni et al., CIKM'15):
//     Greedy plus a normalized-degree term that pushes replication onto
//     hubs, with an explicit load-balance term λ.
package vcut

import (
	"fmt"

	"bpart/internal/graph"
)

// MaxParts bounds k so per-vertex replica sets fit one machine word.
const MaxParts = 64

// EdgeAssignment maps every arc (in g.Edges enumeration order: source-major,
// targets sorted) to a part.
type EdgeAssignment struct {
	Parts []int
	K     int
}

// Validate checks the assignment covers every arc with parts in range.
func (a *EdgeAssignment) Validate(g *graph.Graph) error {
	if len(a.Parts) != g.NumEdges() {
		return fmt.Errorf("vcut: %d entries for %d arcs", len(a.Parts), g.NumEdges())
	}
	if a.K <= 0 || a.K > MaxParts {
		return fmt.Errorf("vcut: K = %d, want in [1,%d]", a.K, MaxParts)
	}
	for i, p := range a.Parts {
		if p < 0 || p >= a.K {
			return fmt.Errorf("vcut: arc %d assigned to part %d, want [0,%d)", i, p, a.K)
		}
	}
	return nil
}

// Partitioner is a vertex-cut partitioning scheme.
type Partitioner interface {
	Name() string
	Partition(g *graph.Graph, k int) (*EdgeAssignment, error)
}

func checkArgs(g *graph.Graph, k int) error {
	if g == nil {
		return fmt.Errorf("vcut: nil graph")
	}
	if k <= 0 || k > MaxParts {
		return fmt.Errorf("vcut: k = %d, want in [1,%d]", k, MaxParts)
	}
	return nil
}

// Replicas returns, per vertex, the bitmask of parts holding at least one
// of its arcs (as source or target).
func Replicas(g *graph.Graph, a *EdgeAssignment) []uint64 {
	masks := make([]uint64, g.NumVertices())
	i := 0
	g.Edges(func(e graph.Edge) bool {
		bit := uint64(1) << a.Parts[i]
		masks[e.Src] |= bit
		masks[e.Dst] |= bit
		i++
		return true
	})
	return masks
}

// Report summarizes vertex-cut quality.
type Report struct {
	K int
	// EdgeCounts is the per-part arc count (the balanced dimension).
	EdgeCounts []int
	// ReplicationFactor is Σ copies / |V| over vertices with ≥1 arc.
	ReplicationFactor float64
	// MaxReplicas is the largest per-vertex copy count.
	MaxReplicas int
}

// NewReport computes the Report for an edge assignment.
func NewReport(g *graph.Graph, a *EdgeAssignment) Report {
	r := Report{K: a.K, EdgeCounts: make([]int, a.K)}
	for _, p := range a.Parts {
		r.EdgeCounts[p]++
	}
	masks := Replicas(g, a)
	var total, present int
	for _, m := range masks {
		if m == 0 {
			continue
		}
		c := popcount(m)
		total += c
		present++
		if c > r.MaxReplicas {
			r.MaxReplicas = c
		}
	}
	if present > 0 {
		r.ReplicationFactor = float64(total) / float64(present)
	}
	return r
}

func popcount(x uint64) int {
	c := 0
	for ; x != 0; x &= x - 1 {
		c++
	}
	return c
}

func mix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// RandomEdge hashes each arc to a part.
type RandomEdge struct {
	Seed uint64
	observability
}

// Name implements Partitioner.
func (RandomEdge) Name() string { return "RandomEdge" }

// Partition implements Partitioner.
func (r RandomEdge) Partition(g *graph.Graph, k int) (*EdgeAssignment, error) {
	if err := checkArgs(g, k); err != nil {
		return nil, err
	}
	sp := r.startSpan("RandomEdge", g, k)
	parts := make([]int, g.NumEdges())
	for i := range parts {
		parts[i] = int(mix64(uint64(i)^r.Seed) % uint64(k))
	}
	a := &EdgeAssignment{Parts: parts, K: k}
	r.finish(sp, g, a)
	return a, nil
}

// DBH assigns each arc by hashing its lower-(total-)degree endpoint.
type DBH struct {
	Seed uint64
	observability
}

// Name implements Partitioner.
func (DBH) Name() string { return "DBH" }

// Partition implements Partitioner.
func (d DBH) Partition(g *graph.Graph, k int) (*EdgeAssignment, error) {
	if err := checkArgs(g, k); err != nil {
		return nil, err
	}
	sp := d.startSpan("DBH", g, k)
	deg := totalDegrees(g)
	parts := make([]int, g.NumEdges())
	i := 0
	g.Edges(func(e graph.Edge) bool {
		anchor := e.Src
		if deg[e.Dst] < deg[e.Src] {
			anchor = e.Dst
		}
		parts[i] = int(mix64(uint64(anchor)^d.Seed) % uint64(k))
		i++
		return true
	})
	a := &EdgeAssignment{Parts: parts, K: k}
	d.finish(sp, g, a)
	return a, nil
}

// totalDegrees returns out-degree + in-degree per vertex.
func totalDegrees(g *graph.Graph) []int {
	deg := make([]int, g.NumVertices())
	g.Edges(func(e graph.Edge) bool {
		deg[e.Src]++
		deg[e.Dst]++
		return true
	})
	return deg
}

// Greedy is PowerGraph's streaming edge placement.
type Greedy struct {
	observability
}

// Name implements Partitioner.
func (Greedy) Name() string { return "Greedy" }

// Partition implements Partitioner.
func (gr Greedy) Partition(g *graph.Graph, k int) (*EdgeAssignment, error) {
	return streamEdges(g, k, "Greedy", gr.observability, func(_, _ float64, repU, repV bool, load, minLoad, maxLoad int) float64 {
		score := 0.0
		if repU {
			score++
		}
		if repV {
			score++
		}
		// Light balance tie-break.
		spread := float64(maxLoad-minLoad) + 1
		return score + float64(maxLoad-load)/spread
	})
}

// HDRF is the High-Degree Replicated First scheme, with the balance term
// weighed by λ = 1.
type HDRF struct {
	observability
}

// Name implements Partitioner.
func (HDRF) Name() string { return "HDRF" }

// Partition implements Partitioner.
func (h HDRF) Partition(g *graph.Graph, k int) (*EdgeAssignment, error) {
	return streamEdges(g, k, "HDRF", h.observability, func(thetaU, thetaV float64, repU, repV bool, load, minLoad, maxLoad int) float64 {
		score := 0.0
		if repU {
			score += 1 + (1 - thetaU)
		}
		if repV {
			score += 1 + (1 - thetaV)
		}
		spread := float64(maxLoad-minLoad) + 1
		return score + float64(maxLoad-load)/spread
	})
}

// scoreFunc rates placing the current arc (u,v) on a part: thetaU/thetaV
// are the endpoints' normalized partial degrees, repU/repV whether the part
// already replicates them, and load/minLoad/maxLoad the part's and the
// extreme edge loads.
type scoreFunc func(thetaU, thetaV float64, repU, repV bool, load, minLoad, maxLoad int) float64

func streamEdges(g *graph.Graph, k int, name string, o observability, score scoreFunc) (*EdgeAssignment, error) {
	if err := checkArgs(g, k); err != nil {
		return nil, err
	}
	sp := o.startSpan(name, g, k)
	n := g.NumVertices()
	parts := make([]int, g.NumEdges())
	replicas := make([]uint64, n)
	load := make([]int, k)
	partial := make([]int, n) // degree seen so far
	minLoad, maxLoad := 0, 0

	// Arc index base per source, so assignments land at the arc's
	// position in the canonical source-major enumeration even though the
	// stream visits sources in shuffled order (HDRF/Greedy are defined
	// over randomly ordered edge streams; source-major order lets the
	// replication term snowball one part to 8× overload).
	base := make([]int, n)
	sum := 0
	for v := 0; v < n; v++ {
		base[v] = sum
		sum += g.OutDegree(graph.VertexID(v))
	}
	order := shuffledVertices(n, 0x5747)

	for _, src := range order {
		for off, dst := range g.Neighbors(src) {
			partial[src]++
			partial[dst]++
			du, dv := partial[src], partial[dst]
			thetaU := float64(du) / float64(du+dv)
			thetaV := 1 - thetaU
			best, bestScore := 0, -1.0
			for p := 0; p < k; p++ {
				bit := uint64(1) << p
				s := score(thetaU, thetaV,
					replicas[src]&bit != 0, replicas[dst]&bit != 0,
					load[p], minLoad, maxLoad)
				if s > bestScore || (s == bestScore && load[p] < load[best]) {
					best, bestScore = p, s
				}
			}
			parts[base[src]+off] = best
			bit := uint64(1) << best
			replicas[src] |= bit
			replicas[dst] |= bit
			load[best]++
			minLoad, maxLoad = load[0], load[0]
			for p := 1; p < k; p++ {
				if load[p] < minLoad {
					minLoad = load[p]
				}
				if load[p] > maxLoad {
					maxLoad = load[p]
				}
			}
		}
	}
	a := &EdgeAssignment{Parts: parts, K: k}
	o.finish(sp, g, a)
	return a, nil
}

// shuffledVertices returns a deterministic pseudo-random vertex order.
func shuffledVertices(n int, seed uint64) []graph.VertexID {
	order := make([]graph.VertexID, n)
	for i := range order {
		order[i] = graph.VertexID(i)
	}
	state := seed
	for i := n - 1; i > 0; i-- {
		state = mix64(state)
		j := int(state % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	return order
}

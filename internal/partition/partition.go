// Package partition implements the streaming graph partitioners the paper
// compares against (§2.2): Chunk-V, Chunk-E, Hash and Fennel, plus the
// generic weighted streaming engine that both Fennel and BPart's
// partitioning phase (internal/core) are built on.
//
// A partitioning is an edge-cut style vertex assignment: every vertex goes
// to exactly one part, a part owns all out-edges of its vertices
// (|E_i| = Σ_{v∈V_i} outdeg v), and an arc whose endpoints live in
// different parts is a cut edge that costs network traffic at run time.
package partition

import (
	"fmt"

	"bpart/internal/graph"
)

// Unassigned marks a vertex that no part owns (only possible in partial
// streaming results and in a StreamState).
const Unassigned = -1

// Assignment maps every vertex to a part in [0, K).
type Assignment struct {
	Parts []int
	K     int
}

// Validate checks that the assignment covers every vertex of g with a part
// in range.
func (a *Assignment) Validate(g *graph.Graph) error {
	if len(a.Parts) != g.NumVertices() {
		return fmt.Errorf("partition: %d entries for %d vertices", len(a.Parts), g.NumVertices())
	}
	if a.K <= 0 {
		return fmt.Errorf("partition: K = %d, want > 0", a.K)
	}
	for v, p := range a.Parts {
		if p < 0 || p >= a.K {
			return fmt.Errorf("partition: vertex %d assigned to part %d, want [0,%d)", v, p, a.K)
		}
	}
	return nil
}

// Partitioner is a graph partitioning scheme.
type Partitioner interface {
	// Name returns the scheme's name as used in the paper ("Chunk-V",
	// "Fennel", "BPart", ...).
	Name() string
	// Partition splits g into k parts.
	Partition(g *graph.Graph, k int) (*Assignment, error)
}

func checkArgs(g *graph.Graph, k int) error {
	if g == nil {
		return fmt.Errorf("partition: nil graph")
	}
	if k <= 0 {
		return fmt.Errorf("partition: k = %d, want > 0", k)
	}
	return nil
}

// ChunkV chunks the vertex stream: contiguous vertex-ID ranges of (nearly)
// equal vertex count, as used by Gemini and GridGraph. Vertices are
// balanced; on scale-free graphs with ID/degree correlation the edge counts
// are heavily skewed (§2.3, Fig 6a).
type ChunkV struct{}

// Name implements Partitioner.
func (ChunkV) Name() string { return "Chunk-V" }

// Partition implements Partitioner.
func (ChunkV) Partition(g *graph.Graph, k int) (*Assignment, error) {
	if err := checkArgs(g, k); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	parts := make([]int, n)
	for v := 0; v < n; v++ {
		p := v * k / max(n, 1)
		if p >= k {
			p = k - 1
		}
		parts[v] = p
	}
	return &Assignment{Parts: parts, K: k}, nil
}

// ChunkE chunks the edge stream: contiguous vertex-ID ranges of (nearly)
// equal out-edge count, as used by KnightKing and GraphChi. Edges are
// balanced; vertex counts are heavily skewed (§2.3, Fig 6b).
type ChunkE struct{}

// Name implements Partitioner.
func (ChunkE) Name() string { return "Chunk-E" }

// Partition implements Partitioner.
func (ChunkE) Partition(g *graph.Graph, k int) (*Assignment, error) {
	if err := checkArgs(g, k); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	m := g.NumEdges()
	parts := make([]int, n)
	target := float64(m) / float64(k)
	part, acc := 0, 0
	for v := 0; v < n; v++ {
		// Close the current chunk once it has reached its share; the
		// final part takes whatever remains.
		if part < k-1 && float64(acc) >= target*float64(part+1) {
			part++
		}
		parts[v] = part
		acc += g.OutDegree(graph.VertexID(v))
	}
	return &Assignment{Parts: parts, K: k}, nil
}

// Hash assigns each vertex pseudo-randomly (Giraph/Pregel style). Both
// dimensions are balanced in expectation, but ~(k−1)/k of all edges are cut
// (§2.3 Limitation #2, Table 3).
type Hash struct {
	// Seed varies the hash function; the zero value is a valid scheme.
	Seed uint64
}

// Name implements Partitioner.
func (Hash) Name() string { return "Hash" }

// Partition implements Partitioner.
func (h Hash) Partition(g *graph.Graph, k int) (*Assignment, error) {
	if err := checkArgs(g, k); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	parts := make([]int, n)
	for v := 0; v < n; v++ {
		parts[v] = int(mix64(uint64(v)+h.Seed*0x9E3779B97F4A7C15) % uint64(k))
	}
	return &Assignment{Parts: parts, K: k}, nil
}

// mix64 is the splitmix64 finalizer, a high-quality integer hash.
func mix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

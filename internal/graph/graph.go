// Package graph provides an immutable, compressed-sparse-row (CSR) directed
// graph representation used by every other package in this repository: the
// streaming partitioners, the BPart combiner, the Gemini-like BSP engine and
// the KnightKing-like random-walk engine.
//
// Vertices are dense uint32 identifiers in [0, NumVertices()). Edges are
// directed; an undirected graph is represented by storing both arcs. The
// edge count NumEdges() counts directed arcs, matching how the paper's
// systems (Gemini, KnightKing) account subgraph size: the number of edges of
// a partition is the sum of out-degrees of its vertices.
package graph

import (
	"fmt"
	"slices"
	"sync"
)

// VertexID identifies a vertex. Dense, zero-based.
type VertexID = uint32

// Edge is a directed arc from Src to Dst.
type Edge struct {
	Src VertexID
	Dst VertexID
}

// Graph is an immutable directed graph in CSR form.
//
// The zero value is an empty graph with no vertices. Construct non-empty
// graphs with a Builder, FromEdges or FromCSR. Every constructor leaves each
// adjacency row sorted ascending (parallel arcs adjacent); Validate checks
// it and HasEdge relies on it. All methods are safe for concurrent use
// because the structure is never mutated after construction; the one lazy
// field, the reverse In builds, is published under a sync.Once. A Graph is
// handled by pointer and never copied.
type Graph struct {
	offsets []uint64 // len = numVertices+1
	targets []VertexID

	inOnce sync.Once
	in     *Graph // the reverse, built by the first In call
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns the number of directed arcs.
func (g *Graph) NumEdges() int { return len(g.targets) }

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v VertexID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the out-neighbors of v as a shared slice.
// Callers must not modify the returned slice.
func (g *Graph) Neighbors(v VertexID) []VertexID {
	return g.targets[g.offsets[v]:g.offsets[v+1]]
}

// AvgDegree returns the average out-degree, the d̄ of the paper's weighted
// balance indicator W_i = c·|V_i| + (1−c)·|E_i|/d̄.
func (g *Graph) AvgDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(n)
}

// HasEdge reports whether the arc (src, dst) exists, by binary search over
// src's sorted adjacency row.
func (g *Graph) HasEdge(src, dst VertexID) bool {
	_, ok := slices.BinarySearch(g.Neighbors(src), dst)
	return ok
}

// Edges calls fn for every arc in vertex order. It stops early if fn
// returns false.
func (g *Graph) Edges(fn func(e Edge) bool) {
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(VertexID(v)) {
			if !fn(Edge{Src: VertexID(v), Dst: u}) {
				return
			}
		}
	}
}

// EdgeList materializes all arcs. Intended for tests and small graphs.
func (g *Graph) EdgeList() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	g.Edges(func(e Edge) bool {
		out = append(out, e)
		return true
	})
	return out
}

// Transpose returns a fresh graph with every arc reversed. It is the
// uncached builder behind In, which is what consumers of in-neighbors call.
//
// It is a direct counting sort over the target array: count in-degrees,
// prefix-sum them into offsets, then scatter while scanning sources in
// ascending order — which emits every in-row already sorted, parallel arcs
// adjacent. It allocates the two CSR arrays and one cursor array.
func (g *Graph) Transpose() *Graph {
	n := g.NumVertices()
	offsets := make([]uint64, n+1)
	for _, t := range g.targets {
		offsets[t+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	targets := make([]VertexID, len(g.targets))
	cursor := make([]uint64, n)
	copy(cursor, offsets[:n])
	for v := 0; v < n; v++ {
		for _, t := range g.targets[g.offsets[v]:g.offsets[v+1]] {
			targets[cursor[t]] = VertexID(v)
			cursor[t]++
		}
	}
	return &Graph{offsets: offsets, targets: targets}
}

// In returns the reverse of g, whose row v lists v's in-neighbors: the
// graph's one shared reverse adjacency, for every consumer of the
// undirected neighborhood or of pull-style access. The first call builds it
// with Transpose; it then lives as long as g (4·|E| + 8·(|V|+1) bytes) and
// every later call, from any goroutine, returns the same pointer. The
// reverse's own In is g, so g.In().In() == g with no second build.
func (g *Graph) In() *Graph {
	g.inOnce.Do(func() {
		if g.in == nil { // nil unless g is itself a reverse In built
			g.in = g.Transpose()
			g.in.in = g
		}
	})
	return g.in
}

// FromCSR adopts offsets and targets as a graph without copying them: the
// caller must not use either slice afterwards. offsets must have one entry
// per vertex plus one (nil or empty for the empty graph), start at 0, be
// monotone and end at len(targets); every target must be below the vertex
// count. Rows that are not already ascending are sorted in place.
func FromCSR(offsets []uint64, targets []VertexID) (*Graph, error) {
	//bpartlint:ignore aliasret adopting the arrays is the point: a loader hands over the CSR it just decoded instead of paying a second copy
	g := &Graph{offsets: offsets, targets: targets}
	if err := g.validateShape(); err != nil {
		return nil, err
	}
	g.sortRows()
	return g, nil
}

// sortRows sorts every adjacency row that is not already ascending.
func (g *Graph) sortRows() {
	for v := 0; v < g.NumVertices(); v++ {
		if ns := g.Neighbors(VertexID(v)); !slices.IsSorted(ns) {
			slices.Sort(ns)
		}
	}
}

// Degrees returns a freshly allocated slice of out-degrees.
func (g *Graph) Degrees() []int {
	d := make([]int, g.NumVertices())
	for v := range d {
		d[v] = g.OutDegree(VertexID(v))
	}
	return d
}

// Validate checks structural invariants: monotone offsets, in-range targets
// and sorted adjacency rows. It returns nil for a well-formed graph.
func (g *Graph) Validate() error {
	if err := g.validateShape(); err != nil {
		return err
	}
	for v := 0; v < g.NumVertices(); v++ {
		if !slices.IsSorted(g.Neighbors(VertexID(v))) {
			return fmt.Errorf("graph: adjacency of vertex %d not sorted", v)
		}
	}
	return nil
}

// validateShape checks everything Validate does except row order, so that
// FromCSR can index rows safely before sorting them.
func (g *Graph) validateShape() error {
	n := g.NumVertices()
	if n == 0 {
		if len(g.targets) != 0 {
			return fmt.Errorf("graph: %d targets but no vertices", len(g.targets))
		}
		return nil
	}
	if g.offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", g.offsets[0])
	}
	if g.offsets[n] != uint64(len(g.targets)) {
		return fmt.Errorf("graph: offsets[n] = %d, want %d", g.offsets[n], len(g.targets))
	}
	for v := 0; v < n; v++ {
		if g.offsets[v] > g.offsets[v+1] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
	}
	for i, t := range g.targets {
		if int(t) >= n {
			return fmt.Errorf("graph: target %d of arc %d out of range [0,%d)", t, i, n)
		}
	}
	return nil
}

// String returns a short summary such as "graph(|V|=5, |E|=7)".
func (g *Graph) String() string {
	return fmt.Sprintf("graph(|V|=%d, |E|=%d)", g.NumVertices(), g.NumEdges())
}

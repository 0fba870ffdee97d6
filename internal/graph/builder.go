package graph

import "fmt"

// Builder accumulates edges and produces an immutable CSR Graph.
//
// Build uses a two-pass counting-sort layout, so construction is O(|V|+|E|)
// plus a sort of the adjacency rows that did not arrive in order. A Builder
// may be reused after Build;
// the built graph does not alias the builder's buffers.
type Builder struct {
	numVertices int
	srcs        []VertexID
	dsts        []VertexID
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &Builder{numVertices: n}
}

// NumVertices returns the declared vertex count.
func (b *Builder) NumVertices() int { return b.numVertices }

// NumEdges returns the number of arcs added so far.
func (b *Builder) NumEdges() int { return len(b.srcs) }

// Grow raises the vertex count to at least n.
func (b *Builder) Grow(n int) {
	if n > b.numVertices {
		b.numVertices = n
	}
}

// AddEdge records the directed arc (src, dst). Both endpoints must be below
// the declared vertex count.
func (b *Builder) AddEdge(src, dst VertexID) {
	if int(src) >= b.numVertices || int(dst) >= b.numVertices {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", src, dst, b.numVertices))
	}
	b.srcs = append(b.srcs, src)
	b.dsts = append(b.dsts, dst)
}

// AddUndirected records both arcs (src,dst) and (dst,src).
func (b *Builder) AddUndirected(src, dst VertexID) {
	b.AddEdge(src, dst)
	b.AddEdge(dst, src)
}

// Build produces the immutable graph. Adjacency lists are sorted by target;
// parallel arcs are kept (multigraphs are legal inputs for the partitioners,
// which only ever count arcs).
func (b *Builder) Build() *Graph {
	n := b.numVertices
	offsets := make([]uint64, n+1)
	for _, s := range b.srcs {
		offsets[s+1]++
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	targets := make([]VertexID, len(b.srcs))
	cursor := make([]uint64, n)
	copy(cursor, offsets[:n])
	for i, s := range b.srcs {
		targets[cursor[s]] = b.dsts[i]
		cursor[s]++
	}
	g := &Graph{offsets: offsets, targets: targets}
	g.sortRows()
	return g
}

// FromEdges builds a graph with n vertices from an edge list.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.Src, e.Dst)
	}
	return b.Build()
}

// FromAdjacency builds a graph from an adjacency-list description; adj[v]
// holds the out-neighbors of v. Handy for table-driven tests.
func FromAdjacency(adj [][]VertexID) *Graph {
	b := NewBuilder(len(adj))
	for v, ns := range adj {
		for _, u := range ns {
			b.AddEdge(VertexID(v), u)
		}
	}
	return b.Build()
}

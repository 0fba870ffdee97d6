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
	"runtime"
	"slices"
	"sort"
	"sync"

	"bpart/internal/pool"
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
// It builds in bands on every core (pool.Run at width GOMAXPROCS) once the
// graph has two bands' worth of arcs; the bytes are the same at any width.
func (g *Graph) Transpose() *Graph {
	return g.transpose(transposeBands(runtime.GOMAXPROCS(0), len(g.targets)))
}

// minBandArcs is the fan-out floor: no band scatters fewer arcs, so a graph
// below 2·minBandArcs builds on one band, inline, and starts no goroutine.
const minBandArcs = 1 << 17

// bandsPerWorker: a band's scattered writes stay within its own slice of
// the output, so more, smaller bands miss cache less, but every band
// re-reads all source rows. On the benchmark graph (3.78 M arcs, 2-CPU
// host) two per worker beat one per worker at one core (17.7 → 16.5 ns per
// arc) and at two (9.8 → 8.8); more per worker gained under 1 ns at one
// core and lost at two.
const bandsPerWorker = 2

// transposeBands is the band count for m arcs at width w: bandsPerWorker
// per worker, fewer when a band would fall below the floor.
func transposeBands(w, m int) int {
	return max(1, min(bandsPerWorker*w, m/minBandArcs))
}

// transpose is a counting sort over the target array, banded by
// destination. It counts in-degrees into offsets and prefix-sums them one
// slot to the right, so offsets[t+1] holds the start of row t and serves
// as its cursor: scattering advances it to the row's end, which is
// offsets[t+1]'s final value — no cursor array and no pass afterwards.
//
// Each band owns a contiguous range of target vertices [lo, hi), cut so
// the bands hold about equal arc counts. It scans every source row in
// ascending order from the row's first target >= lo (a binary search: rows
// are sorted) up to hi, so every in-row is filled in ascending source
// order, parallel arcs adjacent, exactly as one band fills it. Bands write
// disjoint ranges of targets and of offsets, so they run concurrently on
// pool.Run. It allocates the two CSR arrays, plus the band bounds and the
// task closure when there is more than one band.
func (g *Graph) transpose(bands int) *Graph {
	n, m := g.NumVertices(), len(g.targets)
	offsets := make([]uint64, n+1)
	for _, t := range g.targets {
		offsets[t+1]++
	}
	var start uint64
	for v := 1; v <= n; v++ {
		d := offsets[v]
		offsets[v] = start
		start += d
	}
	targets := make([]VertexID, m)
	if bands <= 1 {
		g.scatterBand(offsets, targets, 0, n)
		return &Graph{offsets: offsets, targets: targets}
	}
	bounds := make([]int, bands+1)
	for b := 1; b < bands; b++ {
		arcs := uint64(b * m / bands)
		bounds[b] = sort.Search(n, func(t int) bool { return offsets[t+1] >= arcs })
	}
	bounds[bands] = n
	pool.Run(runtime.GOMAXPROCS(0), bands, func(b int) {
		g.scatterBand(offsets, targets, bounds[b], bounds[b+1])
	})
	return &Graph{offsets: offsets, targets: targets}
}

// scatterBand writes the in-rows of the targets in [lo, hi): every source
// row in ascending order, from its first target >= lo up to hi, each arc
// at its target's cursor offsets[t+1], which it advances.
func (g *Graph) scatterBand(offsets []uint64, targets []VertexID, lo, hi int) {
	for v := 0; v < len(g.offsets)-1; v++ {
		row := g.targets[g.offsets[v]:g.offsets[v+1]]
		if lo > 0 {
			i, _ := slices.BinarySearch(row, VertexID(lo))
			row = row[i:]
		}
		for _, t := range row {
			if int(t) >= hi {
				break
			}
			c := offsets[t+1]
			targets[c] = VertexID(v)
			offsets[t+1] = c + 1
		}
	}
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

// Package oracle holds textbook sequential references for the engine's
// algorithms: union-find connected components, queue BFS, binary-heap
// Dijkstra, power-iteration PageRank and bucket-peeling k-core. Each reads
// the raw CSR (out-edges only) and shares no code with internal/engine,
// so a test that compares the two catches a kernel bug that every engine
// algorithm would otherwise agree on. MaxFreeze is the same kind of
// reference for BPart's combine (internal/core): the exact optimum its
// pairing heuristic is measured against.
package oracle

import (
	"container/heap"
	"fmt"
	"math"
	"math/bits"

	"bpart/internal/graph"
)

// Components labels every vertex with the smallest vertex ID of its weakly
// connected component (union-find with path halving) and returns the
// labels and the component count.
func Components(g *graph.Graph) ([]uint32, int) {
	n := g.NumVertices()
	parent := make([]uint32, n)
	for v := range parent {
		parent[v] = uint32(v)
	}
	find := func(v uint32) uint32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(graph.VertexID(v)) {
			a, b := find(uint32(v)), find(u)
			// Union by smaller ID keeps each root the component minimum.
			if a < b {
				parent[b] = a
			} else if b < a {
				parent[a] = b
			}
		}
	}
	labels := make([]uint32, n)
	count := 0
	for v := range labels {
		labels[v] = find(uint32(v))
		if labels[v] == uint32(v) {
			count++
		}
	}
	return labels, count
}

// BFS returns hop distances from src over out-edges, -1 when unreachable.
func BFS(g *graph.Graph, src graph.VertexID) []int32 {
	dist := make([]int32, g.NumVertices())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []graph.VertexID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

type distItem struct {
	v graph.VertexID
	d int64
}

type distHeap []distItem

func (h distHeap) Len() int           { return len(h) }
func (h distHeap) Less(i, j int) bool { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x any)        { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// SSSP is Dijkstra with a binary heap from src over out-edges weighted by
// weight, which must be non-negative; -1 when unreachable.
func SSSP(g *graph.Graph, src graph.VertexID, weight func(u, v graph.VertexID) int64) []int64 {
	dist := make([]int64, g.NumVertices())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	h := &distHeap{{v: src}}
	for h.Len() > 0 {
		it := heap.Pop(h).(distItem)
		if it.d > dist[it.v] {
			continue
		}
		for _, u := range g.Neighbors(it.v) {
			d := it.d + weight(it.v, u)
			if dist[u] < 0 || d < dist[u] {
				dist[u] = d
				heap.Push(h, distItem{v: u, d: d})
			}
		}
	}
	return dist
}

// PageRank runs iters power iterations from the uniform vector with the
// engine's dangling rule: a vertex without out-edges spreads its rank
// evenly over every vertex.
func PageRank(g *graph.Graph, damping float64, iters int) []float64 {
	n := g.NumVertices()
	rank := make([]float64, n)
	next := make([]float64, n)
	for v := range rank {
		rank[v] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		var dangling float64
		clear(next)
		for v := 0; v < n; v++ {
			ns := g.Neighbors(graph.VertexID(v))
			if len(ns) == 0 {
				dangling += rank[v]
				continue
			}
			share := rank[v] / float64(len(ns))
			for _, u := range ns {
				next[u] += share
			}
		}
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		for v := range next {
			next[v] = base + damping*next[v]
		}
		rank, next = next, rank
	}
	return rank
}

// KCore reports which vertices lie in the k-core of g's undirected
// closure — the largest set in which every vertex keeps at least k arcs,
// out plus in, to the set — and the core's size. It computes every
// vertex's core number by Batagelj–Zaversnik bucket peeling: vertices leave
// in ascending current degree, each lowering every higher-degree neighbor
// by one bucket; a vertex's degree when it leaves is its core number.
func KCore(g *graph.Graph, k int) ([]bool, int) {
	n := g.NumVertices()
	adj := make([][]graph.VertexID, n)
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(graph.VertexID(v)) {
			adj[v] = append(adj[v], u)
			adj[u] = append(adj[u], graph.VertexID(v))
		}
	}
	deg := make([]int, n)
	maxDeg := 0
	for v := range adj {
		deg[v] = len(adj[v])
		maxDeg = max(maxDeg, deg[v])
	}
	// bin[d] is the first position of degree-d vertices in vert, which
	// lists the vertices in ascending degree; pos is its inverse.
	bin := make([]int, maxDeg+1)
	for _, d := range deg {
		bin[d]++
	}
	start := 0
	for d, count := range bin {
		bin[d], start = start, start+count
	}
	pos, vert := make([]int, n), make([]int, n)
	for v, d := range deg {
		pos[v] = bin[d]
		vert[pos[v]] = v
		bin[d]++
	}
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0
	for i := 0; i < n; i++ {
		v := vert[i]
		for _, u := range adj[v] {
			if deg[u] <= deg[v] {
				continue
			}
			// Swap u to the front of its bucket, then shrink the bucket
			// past it: u drops one degree.
			du, pu := deg[u], pos[u]
			pw := bin[du]
			if w := vert[pw]; w != int(u) {
				pos[u], vert[pu] = pw, w
				pos[w], vert[pw] = pu, int(u)
			}
			bin[du]++
			deg[u]--
		}
	}
	inCore := make([]bool, n)
	size := 0
	for v, core := range deg {
		if core >= k {
			inCore[v] = true
			size++
		}
	}
	return inCore, size
}

// MaxFreeze is the most groups any combine of one BPart layer could
// freeze: the maximum number of disjoint sets of the layer's pieces (piece
// i holds pv[i] vertices and pe[i] edges) whose sums each lie within
// eps·tv of tv and within eps·te of te (a zero edge target constrains
// nothing). It is a dynamic program over subsets, 3^P steps and 2^P words
// for P pieces, so it refuses more than 16.
func MaxFreeze(pv, pe []int, tv, te, eps float64) int {
	p := len(pv)
	if p > 16 || len(pe) != p {
		panic(fmt.Sprintf("oracle: MaxFreeze over %d/%d pieces, want equal counts <= 16", len(pv), len(pe)))
	}
	sumV := make([]int, 1<<p)
	sumE := make([]int, 1<<p)
	for set := 1; set < 1<<p; set++ {
		low := bits.TrailingZeros(uint(set))
		sumV[set] = sumV[set&(set-1)] + pv[low]
		sumE[set] = sumE[set&(set-1)] + pe[low]
	}
	fits := func(set int) bool {
		return math.Abs(float64(sumV[set])-tv) <= eps*tv &&
			(te <= 0 || math.Abs(float64(sumE[set])-te) <= eps*te)
	}
	// best[set] is the most disjoint fitting sets inside set: its lowest
	// piece either joins no set, or one fitting subset that holds it.
	best := make([]int, 1<<p)
	for set := 1; set < 1<<p; set++ {
		low := set & -set
		best[set] = best[set^low]
		for sub := set; sub > 0; sub = (sub - 1) & set {
			if sub&low != 0 && best[set^sub]+1 > best[set] && fits(sub) {
				best[set] = best[set^sub] + 1
			}
		}
	}
	return best[1<<p-1]
}

package main

import (
	"container/heap"
	"fmt"
	"math"

	"bpart/internal/engine"
	"bpart/internal/graph"
)

// The oracles are textbook sequential implementations over the raw CSR,
// sharing no code with internal/engine. They are computed once in set-up
// and every engine result of every job is compared against them.

// oraclePageRank is push-style power iteration with uniform redistribution
// of dangling mass. It returns the ranks after each requested iteration
// count (ascending).
func oraclePageRank(g *graph.Graph, damping float64, iters ...int) map[int][]float64 {
	n := g.NumVertices()
	rank := make([]float64, n)
	next := make([]float64, n)
	for v := range rank {
		rank[v] = 1 / float64(n)
	}
	out := map[int][]float64{}
	last := iters[len(iters)-1]
	for it := 1; it <= last; it++ {
		var dangling float64
		for v := range next {
			next[v] = 0
		}
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
		for _, want := range iters {
			if want == it {
				out[it] = append([]float64(nil), rank...)
			}
		}
	}
	return out
}

// oracleComponents labels every vertex with the smallest vertex ID of its
// weakly connected component (union-find with path halving) and returns
// the labels and the component count.
func oracleComponents(g *graph.Graph) ([]uint32, int) {
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

// oracleBFS returns hop distances over out-edges, -1 when unreachable.
func oracleBFS(g *graph.Graph, src graph.VertexID) []int32 {
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

// oracleSSSP is Dijkstra with a binary heap over engine.EdgeWeight, -1
// when unreachable.
func oracleSSSP(g *graph.Graph, src graph.VertexID) []int64 {
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
			d := it.d + engine.EdgeWeight(it.v, u)
			if dist[u] < 0 || d < dist[u] {
				dist[u] = d
				heap.Push(h, distItem{v: u, d: d})
			}
		}
	}
	return dist
}

// ranksMatch reports the first vertex whose rank differs from the oracle
// by more than summation-order noise.
func ranksMatch(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("pagerank: %d ranks, oracle has %d", len(got), len(want))
	}
	for v := range want {
		if math.Abs(got[v]-want[v]) > 1e-9*want[v]+1e-15 {
			return fmt.Errorf("pagerank: vertex %d rank %g, oracle %g", v, got[v], want[v])
		}
	}
	return nil
}

// sameInts reports the first position where two result vectors differ.
func sameInts[T comparable](what string, got, want []T) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d entries, oracle has %d", what, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			return fmt.Errorf("%s: vertex %d is %v, oracle %v", what, v, got[v], want[v])
		}
	}
	return nil
}

// Package oracle holds textbook sequential references for the engine's
// traversals: union-find connected components, queue BFS and binary-heap
// Dijkstra. Each reads the raw CSR and shares no code with internal/engine,
// so a test that compares the two catches a kernel bug that every engine
// algorithm would otherwise agree on.
package oracle

import (
	"container/heap"

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

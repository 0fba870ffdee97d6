// accounting.go is the one place a push-style superstep is charged. For a
// fixed graph and placement, what a frontier vertex costs its machine never
// changes: it traverses all its arcs, and the arcs whose other endpoint
// lives on another machine each cost one message. Those cut degrees are a
// property of the placement, so they are computed once per placement and
// every push kernel charges a frontier vertex in O(1).
//
// The K×K comm matrix needs each message's destination, which a per-vertex
// total cannot give: when the superstep captures it (w.Pairs != nil) the
// charge scans the arcs instead. The two modes produce identical Edges and
// Messages (the matrix-grid test pins it).
package engine

import (
	"bpart/internal/cluster"
	"bpart/internal/graph"
)

// pushAccounting charges the frontier vertices of one push superstep.
type pushAccounting struct {
	cl *cluster.Cluster
	g  *graph.Graph
	tr *graph.Graph // non-nil: the superstep also pushes along in-edges
	// Cut degrees over g and tr; nil when the superstep captures the comm
	// matrix and every arc is scanned for its destination.
	cutOut, cutIn []int32
}

// pushAccounting returns the superstep's accounting for the current
// placement. A non-nil tr (the graph's reverse, g.In()) makes it cover the
// undirected closure. Fetch it once per superstep, never across a barrier:
// a restream crash at the barrier replaces the placement.
func (e *Engine) pushAccounting(w *cluster.Counters, tr *graph.Graph) pushAccounting {
	a := pushAccounting{cl: e.cl, g: e.g, tr: tr}
	if w.Pairs != nil {
		return a
	}
	e.cutMu.Lock()
	defer e.cutMu.Unlock()
	if e.cutOut == nil {
		e.cutOut = e.cutDegrees(e.g)
	}
	if tr != nil && e.cutIn == nil {
		e.cutIn = e.cutDegrees(tr)
	}
	a.cutOut, a.cutIn = e.cutOut, e.cutIn
	return a
}

// cutDegrees counts, for every vertex, its neighbors in g owned by another
// machine: one O(E) scan on the worker pool, what every push superstep
// paid before the counts were kept.
func (e *Engine) cutDegrees(g *graph.Graph) []int32 {
	cut := make([]int32, g.NumVertices())
	e.chunkMap(len(cut), func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			m := e.cl.Owner(graph.VertexID(v))
			for _, u := range g.Neighbors(graph.VertexID(v)) {
				if e.cl.Owner(u) != m {
					cut[v]++
				}
			}
		}
	})
	return cut
}

// charge accounts frontier vertex v, owned by machine m, pushing along all
// its arcs: one edge per arc, one message per arc that leaves m.
func (a *pushAccounting) charge(tc *taskCounters, m int, v graph.VertexID) {
	a.chargeRow(tc, m, v, a.g.Neighbors(v), a.cutOut)
	if a.tr != nil {
		a.chargeRow(tc, m, v, a.tr.Neighbors(v), a.cutIn)
	}
}

// chargeRow charges ns, one adjacency row of v: from the cut degrees when
// they are kept, else per arc, recording each message's destination.
func (a *pushAccounting) chargeRow(tc *taskCounters, m int, v graph.VertexID, ns []graph.VertexID, cut []int32) {
	tc.edges += int64(len(ns))
	if cut != nil {
		tc.msgs += int64(cut[v])
		return
	}
	for _, u := range ns {
		if o := a.cl.Owner(u); o != m {
			tc.msgs++
			tc.prow[o]++
		}
	}
}

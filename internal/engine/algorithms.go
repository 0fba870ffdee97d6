package engine

import (
	"fmt"
	"slices"
	"sync/atomic"

	"bpart/internal/cluster"
	"bpart/internal/fault"
	"bpart/internal/graph"
)

// EdgeWeight returns the deterministic synthetic weight of arc (u,v) used
// by SSSP: an integer in [1, 8] derived by hashing the endpoints. Gemini
// and its successors evaluate SSSP on weighted variants of the same social
// graphs; deriving weights on the fly keeps the CSR compact and every run
// reproducible.
func EdgeWeight(u, v graph.VertexID) int64 {
	z := (uint64(u) << 32) | uint64(v)
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z^(z>>31))%8) + 1
}

// SSSPResult is the outcome of a single-source shortest paths run.
type SSSPResult struct {
	Dist    []int64 // -1 = unreachable
	Reached int
	Stats   cluster.RunStats
	// Recovery is set when the run executed under a fault controller.
	Recovery *fault.RecoveryStats
}

// SSSP runs frontier-based Bellman–Ford over out-edges from source with
// the synthetic EdgeWeight weights. Each BSP iteration is one push-mode
// edge-map relaxing the out-edges of the vertices whose distance improved
// in the previous one; distances are non-negative, so they serve directly
// as the kernel's min-combine keys.
func (e *Engine) SSSP(source graph.VertexID) (*SSSPResult, error) {
	n := e.g.NumVertices()
	if int(source) >= n {
		return nil, fmt.Errorf("engine: SSSP source %d out of range", source)
	}
	const unreached = int64(-1)
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = unreached
	}
	dist[source] = 0
	frontier := SubsetFromVertices(n, []graph.VertexID{source})
	spec := &edgeMapSpec{
		key:      func(src graph.VertexID) uint64 { return uint64(dist[src]) },
		weighted: true,
		cur: func(v graph.VertexID) uint64 {
			if dist[v] < 0 {
				return unsetKey
			}
			return uint64(dist[v])
		},
		apply: func(v graph.VertexID, key uint64) { dist[v] = int64(key) },
	}
	st := e.takeKernelState()
	st.bind(spec)
	step := func(int) (cluster.IterationStats, bool) {
		w := e.cl.NewCounters()
		frontier = e.edgeMap(st, frontier, 0, w).frontier
		return e.cl.FinishIteration(w), frontier.Len() == 0
	}
	checkpoint := func() func() {
		saved, members := slices.Clone(dist), subsetMembers(frontier)
		return func() {
			copy(dist, saved)
			st.syncProposals()
			frontier = SubsetFromVertices(n, members)
		}
	}
	res := &SSSPResult{}
	res.Stats, res.Recovery = e.run(step, checkpoint)
	e.putKernelState(st)
	res.Dist = dist
	for _, d := range dist {
		if d >= 0 {
			res.Reached++
		}
	}
	return res, nil
}

// KCoreResult is the outcome of a k-core decomposition run.
type KCoreResult struct {
	// InCore[v] reports whether v survives in the k-core.
	InCore []bool
	// CoreSize is the number of surviving vertices.
	CoreSize int
	Stats    cluster.RunStats
	// Recovery is set when the run executed under a fault controller.
	Recovery *fault.RecoveryStats
}

// KCore computes the k-core of the undirected closure by iterative
// peeling: each BSP round removes every remaining vertex with fewer than
// kCore remaining (out+in) neighbors, until a fixed point. Both the scan
// and the peel run as fixed shards on the worker pool; degree decrements
// are atomic adds (commutative integers), so the surviving core and every
// counter are identical at any worker count.
func (e *Engine) KCore(kCore int) (*KCoreResult, error) {
	if kCore < 1 {
		return nil, fmt.Errorf("engine: k-core with k = %d", kCore)
	}
	n := e.g.NumVertices()
	k := e.cl.NumMachines()
	tr := e.g.In()
	alive := make([]bool, n)
	degree := make([]int32, n)
	for v := 0; v < n; v++ {
		alive[v] = true
		degree[v] = int32(e.g.OutDegree(graph.VertexID(v)) + tr.OutDegree(graph.VertexID(v)))
	}
	// The removed vertices' bytes live in a frontier buffer of the kernel
	// state; the per-task counts and per-machine offsets and lists are the
	// Run's own.
	st := e.takeKernelState()
	buf := st.frontier[0]
	var counts []int
	base := make([]int, k)
	removed := make([][]graph.VertexID, k)
	step := func(int) (cluster.IterationStats, bool) {
		// Read per superstep: a restream replaces the engine's shards.
		tasks := e.tasks
		w := e.cl.NewCounters()
		// Scan: find the sub-threshold survivors. Machine m's owned list
		// starts at base[m] of the cluster's counted |V| array, so shard
		// (m, lo, hi) writes its finds into buf[base[m]+lo:], and a serial
		// copy closes the gaps in (machine, shard) order: each machine's
		// removed list is one window of buf, in ascending vertex order.
		off := 0
		for m := range base {
			base[m] = off
			off += len(e.cl.Owned(m))
		}
		tcs := st.taskCounters(len(tasks), k, false)
		if len(counts) < len(tasks) {
			counts = make([]int, len(tasks))
		}
		e.cl.RunTasks(len(tasks), func(t int) {
			ts := tasks[t]
			at := base[ts.m] + ts.lo
			i := at
			for _, v := range e.cl.Owned(ts.m)[ts.lo:ts.hi] {
				if alive[v] {
					tcs[t].verts++
					if degree[v] < int32(kCore) {
						buf[i] = v
						i++
					}
				}
			}
			counts[t] = i - at
		})
		combineCounters(w, tasks, tcs)
		total, start := 0, 0
		for t, ts := range tasks {
			if t == 0 || tasks[t-1].m != ts.m {
				start = total
			}
			at := base[ts.m] + ts.lo
			total += copy(buf[total:], buf[at:at+counts[t]])
			removed[ts.m] = buf[start:total:total]
		}
		if total == 0 {
			return e.cl.FinishIteration(w), true
		}
		// Peel: mark dead, decrement neighbor degrees, charge the edge
		// scans and the cross-machine notifications.
		for m := 0; m < k; m++ {
			for _, v := range removed[m] {
				alive[v] = false
			}
		}
		ptasks := shardLists(st.tasks[:0], k, func(m int) []graph.VertexID { return removed[m] })
		st.tasks = ptasks
		ptcs := st.taskCounters(len(ptasks), k, w.Pairs != nil)
		acct := e.pushAccounting(w, tr)
		e.cl.RunTasks(len(ptasks), func(t int) {
			ts, tc := ptasks[t], &ptcs[t]
			for _, v := range removed[ts.m][ts.lo:ts.hi] {
				acct.charge(tc, ts.m, v)
				for _, u := range e.g.Neighbors(v) {
					atomic.AddInt32(&degree[u], -1)
				}
				for _, u := range tr.Neighbors(v) {
					atomic.AddInt32(&degree[u], -1)
				}
			}
		})
		combineCounters(w, ptasks, ptcs)
		return e.cl.FinishIteration(w), false
	}
	checkpoint := func() func() {
		savedAlive, savedDegree := slices.Clone(alive), slices.Clone(degree)
		return func() {
			copy(alive, savedAlive)
			copy(degree, savedDegree)
		}
	}
	res := &KCoreResult{}
	res.Stats, res.Recovery = e.run(step, checkpoint)
	e.putKernelState(st)
	res.InCore = alive
	for _, a := range alive {
		if a {
			res.CoreSize++
		}
	}
	return res, nil
}

// edgemap.go is the engine's shared execution kernel: a Ligra-style
// generic EdgeMap (Shun & Blelloch) over VertexSubset frontiers with
// push/pull direction switching (Beamer et al.), running each superstep's
// vertex work on the cluster's bounded worker pool.
//
// Determinism is the kernel's contract, enforced structurally rather than
// by luck of scheduling:
//
//   - Work is decomposed into shards whose boundaries are a pure function
//     of the work-list length — never of the worker count. Each shard
//     accumulates into shard-private counters, combined in fixed
//     (machine, shard) order after the phase barrier.
//   - Proposals land in a shared buffer through compare-and-swap *minimum*,
//     a commutative and idempotent combine whose fixed point is the same
//     whatever order workers fire in.
//   - Floating-point sums never cross shard boundaries unordered: each
//     destination vertex is summed by exactly one chunk in adjacency
//     order, and per-chunk partials are reduced in chunk index order.
//
// Together these make ranks, labels, distances and every IterationStats
// counter bit-identical at any Workers setting — the property the
// worker-grid tests pin.
package engine

import (
	"sync/atomic"

	"bpart/internal/cluster"
	"bpart/internal/graph"
)

// shardTarget is the nominal vertices-per-shard granule. Shard boundaries
// depend only on the list length, so the decomposition — and therefore
// every combine order — is identical at any worker count.
const shardTarget = 1024

// unsetKey is the proposal buffer's "no proposal" sentinel; every real
// proposal compares below it.
const unsetKey = ^uint64(0)

// shardCount returns the fixed shard count for a work list of length n.
func shardCount(n int) int {
	if n <= shardTarget {
		return 1
	}
	return (n + shardTarget - 1) / shardTarget
}

// machineShard is one task of a scatter phase: the [lo, hi) slice of
// machine m's work list.
type machineShard struct {
	m      int
	lo, hi int
}

// shardLists flattens the fixed shard decomposition of every machine's
// work list into tasks, machine-major. Empty lists still yield one empty
// shard so per-machine counters are always written.
func shardLists(lists [][]graph.VertexID) []machineShard {
	var tasks []machineShard
	for m := range lists {
		n := len(lists[m])
		s := shardCount(n)
		if n == 0 {
			s = 1
		}
		for i := 0; i < s; i++ {
			tasks = append(tasks, machineShard{m: m, lo: i * n / s, hi: (i + 1) * n / s})
		}
	}
	return tasks
}

// taskCounters is one shard's private slice of the superstep counters.
type taskCounters struct {
	edges, msgs, verts int64
	prow               []int64 // per-destination messages, nil unless matrix capture
}

// newTaskCounters allocates one private counter set per task, with matrix
// rows exactly when the superstep captures them.
func newTaskCounters(ntasks, k int, pairs bool) []taskCounters {
	ts := make([]taskCounters, ntasks)
	if pairs {
		flat := make([]int64, ntasks*k)
		for i := range ts {
			ts[i].prow = flat[i*k : (i+1)*k : (i+1)*k]
		}
	}
	return ts
}

// combineCounters folds shard-private counters into the superstep's
// per-machine slots in fixed (machine, shard) order. Integer sums are
// commutative, but the fixed order costs nothing and keeps the discipline
// uniform.
func combineCounters(w *cluster.Counters, tasks []machineShard, ts []taskCounters) {
	for i, t := range tasks {
		w.Edges[t.m] += ts[i].edges
		w.Messages[t.m] += ts[i].msgs
		w.Vertices[t.m] += ts[i].verts
		if w.Pairs != nil && ts[i].prow != nil {
			row := w.Pairs[t.m]
			for o, x := range ts[i].prow {
				row[o] += x
			}
		}
	}
}

// atomicMinU64 lowers *p to v if v is smaller — the kernel's commutative,
// idempotent proposal combine.
func atomicMinU64(p *uint64, v uint64) {
	for {
		old := atomic.LoadUint64(p)
		if v >= old {
			return
		}
		if atomic.CompareAndSwapUint64(p, old, v) {
			return
		}
	}
}

// Beamer's direction-switching thresholds, as used by the pre-kernel
// direction-optimizing BFS: go bottom-up when the frontier's out-edge
// volume exceeds |E|/alpha, back to top-down when the frontier shrinks
// below |V|/beta.
const (
	dirAlpha = 14
	dirBeta  = 24
)

// edgeMapSpec is one algorithm's relaxation, expressed against uint64
// proposal keys (order-preserving encodings of the algorithm's value:
// label, distance, depth). Smaller is better; unsetKey means "no value".
type edgeMapSpec struct {
	// value is the key proposed along arc (src, dst). src is always the
	// frontier side: the pull direction discovers the same arcs from dst's
	// in-edges and calls value with the same orientation.
	value func(src, dst graph.VertexID) uint64
	// cur is v's current key; proposals not strictly below it are ignored.
	cur func(v graph.VertexID) uint64
	// apply commits an improved key during the merge phase. It is called
	// exactly once per improved vertex, from the single chunk owning it.
	apply func(v graph.VertexID, key uint64)
	// undirected also scans the reverse adjacency, computing over the
	// undirected closure (Connected Components).
	undirected bool
	// auto enables Beamer direction switching; otherwise every superstep
	// pushes. Pull supersteps charge edges and messages to the scanning
	// (destination-owning) machine, exactly as the hand-written DOBFS did.
	auto bool
	// stopEarly stops a pull scan of one vertex's in-edges at the first
	// frontier hit (BFS semantics: any parent will do — and with a uniform
	// key per superstep the early exit cannot change the committed value).
	stopEarly bool
}

// kernelState is the per-run scratch of the edge-map kernel.
type kernelState struct {
	prop    []uint64           // shared proposal buffer, CAS-min
	byOwner [][]graph.VertexID // sparse-frontier split scratch
}

func (e *Engine) newKernelState() *kernelState {
	n := e.g.NumVertices()
	st := &kernelState{
		prop:    make([]uint64, n),
		byOwner: make([][]graph.VertexID, e.cl.NumMachines()),
	}
	for i := range st.prop {
		st.prop[i] = unsetKey
	}
	return st
}

// edgeMapOut is one superstep's outcome: the next frontier, its out-edge
// volume (the auto heuristic's input), and the direction taken.
type edgeMapOut struct {
	frontier      *VertexSubset
	frontierEdges int64
	bottomUp      bool
}

// edgeMap advances one superstep: scatter the frontier's proposals (push)
// or gather them from in-edges (pull), then merge improvements into the
// algorithm state and build the next frontier. Counters for the superstep
// are accumulated into w with the same semantics as the hand-written
// per-algorithm loops this kernel replaced.
func (e *Engine) edgeMap(s *edgeMapSpec, st *kernelState, frontier *VertexSubset, frontierEdges int64, w *cluster.Counters) edgeMapOut {
	n := e.g.NumVertices()
	k := e.cl.NumMachines()
	bottomUp := false
	if s.auto {
		m := e.g.NumEdges()
		bottomUp = frontierEdges > int64(m/dirAlpha) && frontier.Len() > n/dirBeta
	}

	// Scatter/gather phase: shard every machine's work list and run the
	// shards on the worker pool.
	var tasks []machineShard
	var run func(t machineShard, tc *taskCounters)
	if bottomUp {
		// Pull: every owned vertex still lacking a value scans its
		// in-edges for a frontier parent.
		tr := e.g.In()
		tasks = e.tasks
		run = func(t machineShard, tc *taskCounters) {
			scan := func(v graph.VertexID, ns []graph.VertexID) bool {
				for _, u := range ns {
					tc.edges++
					if o := e.cl.Owner(u); o != t.m {
						tc.msgs++
						if tc.prow != nil {
							tc.prow[o]++
						}
					}
					if frontier.Contains(u) {
						atomicMinU64(&st.prop[v], s.value(u, v))
						if s.stopEarly {
							return true
						}
					}
				}
				return false
			}
			for _, v := range e.owned[t.m][t.lo:t.hi] {
				if s.cur(v) != unsetKey {
					continue
				}
				tc.verts++
				if scan(v, tr.Neighbors(v)) {
					continue
				}
				if s.undirected {
					scan(v, e.g.Neighbors(v))
				}
			}
		}
	} else {
		// Push: frontier members scatter proposals along out-edges (and,
		// for undirected closures, in-edges). Dense frontiers filter the
		// owned lists through the bitmap; sparse frontiers are split by
		// owner — both iterate owned∩frontier in ascending vertex order,
		// so the representation never changes a counter.
		var tr *graph.Graph
		if s.undirected {
			tr = e.g.In()
		}
		acct := e.pushAccounting(w, tr)
		var member []bool
		var lists [][]graph.VertexID
		if frontier.IsDense() {
			member = frontier.Bitmap()
			lists, tasks = e.owned, e.tasks
		} else {
			for m := range st.byOwner {
				st.byOwner[m] = st.byOwner[m][:0]
			}
			for _, v := range frontier.Vertices() {
				m := e.cl.Owner(v)
				st.byOwner[m] = append(st.byOwner[m], v)
			}
			lists, tasks = st.byOwner, shardLists(st.byOwner)
		}
		run = func(t machineShard, tc *taskCounters) {
			scatter := func(v graph.VertexID, ns []graph.VertexID) {
				for _, u := range ns {
					if key := s.value(v, u); key < s.cur(u) {
						atomicMinU64(&st.prop[u], key)
					}
				}
			}
			for _, v := range lists[t.m][t.lo:t.hi] {
				if member != nil && !member[v] {
					continue
				}
				tc.verts++
				acct.charge(tc, t.m, v)
				scatter(v, e.g.Neighbors(v))
				if s.undirected {
					scatter(v, tr.Neighbors(v))
				}
			}
		}
	}
	tcs := newTaskCounters(len(tasks), k, w.Pairs != nil)
	e.cl.RunTasks(len(tasks), func(t int) { run(tasks[t], &tcs[t]) })
	combineCounters(w, tasks, tcs)

	// Merge phase: fixed chunks over the vertex space, each chunk applying
	// its own vertices' improvements and resetting the proposal buffer.
	// Chunk outputs are concatenated in chunk order, so the next frontier
	// is sorted ascending however the chunks were scheduled.
	chunks := shardCount(n)
	outs := make([][]graph.VertexID, chunks)
	fedges := make([]int64, chunks)
	e.cl.RunTasks(chunks, func(c int) {
		lo, hi := c*n/chunks, (c+1)*n/chunks
		var members []graph.VertexID
		var fe int64
		for v := lo; v < hi; v++ {
			key := st.prop[v]
			if key == unsetKey {
				continue
			}
			st.prop[v] = unsetKey
			id := graph.VertexID(v)
			if key < s.cur(id) {
				s.apply(id, key)
				members = append(members, id)
				fe += int64(e.g.OutDegree(id))
			}
		}
		outs[c] = members
		fedges[c] = fe
	})
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	members := make([]graph.VertexID, 0, total)
	var fe int64
	for c := range outs {
		members = append(members, outs[c]...)
		fe += fedges[c]
	}
	return edgeMapOut{
		frontier:      SubsetFromVertices(n, members),
		frontierEdges: fe,
		bottomUp:      bottomUp,
	}
}

// chunkMap runs fn over fixed chunks of [0, n) on the worker pool —
// the merge-side primitive. Chunk boundaries depend only on n; callers
// combine per-chunk results in chunk index order.
func (e *Engine) chunkMap(n int, fn func(chunk, lo, hi int)) int {
	chunks := shardCount(n)
	e.cl.RunTasks(chunks, func(c int) {
		fn(c, c*n/chunks, (c+1)*n/chunks)
	})
	return chunks
}

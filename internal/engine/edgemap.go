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
//   - Proposals land in a shared buffer that mirrors every vertex's
//     current key between supersteps: a frontier vertex computes its key
//     once and lowers each neighbour's slot by compare-and-swap *minimum*,
//     a commutative and idempotent combine whose fixed point is the same
//     whatever order workers fire in. The merge applies exactly the slots
//     that fell below the current key, which leaves the mirror intact, so
//     the scatter needs no filter of its own. A checkpoint restore puts the
//     algorithm state back and must re-sync the mirror from it
//     (syncProposals); a replay would otherwise see the proposals of the
//     supersteps it is replaying.
//   - Floating-point sums never cross shard boundaries unordered: each
//     destination vertex is summed by exactly one chunk in adjacency
//     order, and per-chunk partials are reduced in chunk index order.
//
// Together these make ranks, labels, distances and every IterationStats
// counter bit-identical at any Workers setting — the property the
// worker-grid tests pin.
package engine

import (
	"slices"
	"sync/atomic"

	"bpart/internal/cluster"
	"bpart/internal/graph"
)

// shardTarget is the nominal vertices-per-shard granule. Shard boundaries
// depend only on the list length, so the decomposition — and therefore
// every combine order — is identical at any worker count. The edge-map's
// dirty bits cover aligned blocks of shardTarget vertices: vertex v is in
// block v >> shardShift.
const (
	shardShift  = 10
	shardTarget = 1 << shardShift
)

// unsetKey is the key of a vertex with no value yet; every real key
// compares below it.
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

// shardLists appends to dst the fixed shard decomposition of each of k
// machines' work lists, list(m), flattened into tasks, machine-major.
// Empty lists still yield one empty shard so per-machine counters are
// always written.
func shardLists(dst []machineShard, k int, list func(m int) []graph.VertexID) []machineShard {
	for m := 0; m < k; m++ {
		n := len(list(m))
		s := shardCount(n)
		if n == 0 {
			s = 1
		}
		for i := 0; i < s; i++ {
			dst = append(dst, machineShard{m: m, lo: i * n / s, hi: (i + 1) * n / s})
		}
	}
	return dst
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
// idempotent proposal combine — and reports whether it did.
func atomicMinU64(p *uint64, v uint64) bool {
	for {
		old := atomic.LoadUint64(p)
		if v >= old {
			return false
		}
		if atomic.CompareAndSwapUint64(p, old, v) {
			return true
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
	// key is the key frontier vertex src proposes along each of its arcs,
	// read once per frontier vertex.
	key func(src graph.VertexID) uint64
	// weighted adds EdgeWeight(src, dst) to src's key on arc (src, dst).
	// src is always the frontier side: the pull direction discovers the
	// same arcs from dst's in-edges and weighs them with the same
	// orientation.
	weighted bool
	// cur is v's current key; the merge applies proposals strictly below
	// it.
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

// kernelState is the edge-map kernel's working memory: the proposal
// buffer and dirty bits, and the buffers each superstep writes its next
// frontier into. It outlives a Run: the engine keeps one spare (see
// takeKernelState), so a Run on a built engine allocates none of it.
type kernelState struct {
	spec *edgeMapSpec // the running algorithm's, set by bind
	// prop is the shared proposal buffer. Between supersteps prop[v] equals
	// spec.cur(v); during one it is lowered by CAS-min.
	prop []uint64
	// dirty has one bit per block of shardTarget aligned vertices, set
	// when a proposal lowered one of the block's slots; the merge visits
	// only the chunks overlapping a set bit, then clears the bits.
	dirty   []atomic.Uint64
	byOwner [][]graph.VertexID // sparse-frontier split scratch

	// frontier holds two |V| member buffers. Each superstep writes its
	// next frontier into frontier[next] and flips next, so the frontier
	// it reads (the other buffer, or a fresh slice a checkpoint restore
	// handed in) is never the one being written.
	frontier [2][]graph.VertexID
	next     int
	// bitmap is the |V| membership bitmap of whichever frontier is dense:
	// the output of a superstep is densified into it only after the
	// scatter has finished reading the input's.
	bitmap []bool
	// counts and fedges are the merge's per-chunk member counts and
	// out-edge sums (KCore's scan uses counts per task).
	counts []int
	fedges []int64
	tasks  []machineShard // a sparse superstep's shard decomposition
	tcs    []taskCounters // per-task counters when no matrix is captured
}

// takeKernelState returns the kernel state the last Run left on the
// engine, or a new one: on the engine's first Run, or beside another Run
// holding it, so no two Runs share one. putKernelState gives it back.
func (e *Engine) takeKernelState() *kernelState {
	if st := e.spare.Swap(nil); st != nil {
		return st
	}
	n := e.g.NumVertices()
	chunks := shardCount(n)
	return &kernelState{
		prop:     make([]uint64, n),
		dirty:    make([]atomic.Uint64, ((n+shardTarget-1)>>shardShift+63)/64),
		byOwner:  make([][]graph.VertexID, e.cl.NumMachines()),
		frontier: [2][]graph.VertexID{make([]graph.VertexID, n), make([]graph.VertexID, n)},
		bitmap:   make([]bool, n),
		counts:   make([]int, chunks),
		fedges:   make([]int64, chunks),
	}
}

// putKernelState leaves st on the engine for the next Run. The dirty bits
// are clear (every merge clears them) and bind rewrites every proposal
// slot, so no Run sees another's values; the spec is dropped so the spare
// holds no algorithm's state alive.
func (e *Engine) putKernelState(st *kernelState) {
	st.spec = nil
	e.spare.Store(st)
}

// bind sets the algorithm st runs and fills the proposal buffer from its
// initial keys.
func (st *kernelState) bind(s *edgeMapSpec) {
	st.spec = s
	st.syncProposals()
}

// syncProposals sets every proposal slot to its vertex's current key: when
// a Run binds its spec, and in each checkpoint restore after the algorithm
// state is copied back.
func (st *kernelState) syncProposals() {
	for v := range st.prop {
		st.prop[v] = st.spec.cur(graph.VertexID(v))
	}
}

// taskCounters returns zeroed private counters for ntasks tasks: the
// state's own when no matrix is captured, fresh ones with rows otherwise.
func (st *kernelState) taskCounters(ntasks, k int, pairs bool) []taskCounters {
	if pairs {
		return newTaskCounters(ntasks, k, true)
	}
	st.tcs = slices.Grow(st.tcs[:0], ntasks)[:ntasks]
	clear(st.tcs)
	return st.tcs
}

// mark sets the dirty bit of v's block: a proposal lowered v's slot.
func (st *kernelState) mark(v graph.VertexID) {
	b := v >> shardShift
	w, bit := &st.dirty[b/64], uint64(1)<<(b%64)
	for {
		old := w.Load()
		if old&bit != 0 || w.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

// dirtyIn reports whether a proposal lowered a slot in a block overlapping
// the non-empty vertex range [lo, hi).
func (st *kernelState) dirtyIn(lo, hi int) bool {
	for b := lo >> shardShift; b <= (hi-1)>>shardShift; b++ {
		if st.dirty[b/64].Load()&(uint64(1)<<(b%64)) != 0 {
			return true
		}
	}
	return false
}

// scatter proposes key from frontier vertex src to every vertex of ns,
// one adjacency row of src, plus the arc weight when the spec is weighted.
func (st *kernelState) scatter(src graph.VertexID, key uint64, ns []graph.VertexID) {
	prop := st.prop
	if st.spec.weighted {
		for _, u := range ns {
			if atomicMinU64(&prop[u], key+uint64(EdgeWeight(src, u))) {
				st.mark(u)
			}
		}
		return
	}
	for _, u := range ns {
		if atomicMinU64(&prop[u], key) {
			st.mark(u)
		}
	}
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
func (e *Engine) edgeMap(st *kernelState, frontier *VertexSubset, frontierEdges int64, w *cluster.Counters) edgeMapOut {
	s := st.spec
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
		// in-edges for a frontier parent. A pulling frontier can be too
		// small to be dense, so membership is read from a bitmap taken
		// here rather than searched per in-arc.
		tr := e.g.In()
		frontier.toDense(st.bitmap)
		member := frontier.dense
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
					if member[u] {
						key := s.key(u)
						if s.weighted {
							key += uint64(EdgeWeight(u, v))
						}
						if atomicMinU64(&st.prop[v], key) {
							st.mark(v)
						}
						if s.stopEarly {
							return true
						}
					}
				}
				return false
			}
			for _, v := range e.cl.Owned(t.m)[t.lo:t.hi] {
				// Only this task writes an owned vertex's slot, and the
				// slot mirrors the current key until it does.
				if st.prop[v] != unsetKey {
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
		list := e.cl.Owned
		if frontier.IsDense() {
			member = frontier.Bitmap()
			tasks = e.tasks
		} else {
			for m := range st.byOwner {
				st.byOwner[m] = st.byOwner[m][:0]
			}
			for _, v := range frontier.Vertices() {
				m := e.cl.Owner(v)
				st.byOwner[m] = append(st.byOwner[m], v)
			}
			list = func(m int) []graph.VertexID { return st.byOwner[m] }
			st.tasks = shardLists(st.tasks[:0], k, list)
			tasks = st.tasks
		}
		run = func(t machineShard, tc *taskCounters) {
			for _, v := range list(t.m)[t.lo:t.hi] {
				if member != nil && !member[v] {
					continue
				}
				tc.verts++
				acct.charge(tc, t.m, v)
				key := s.key(v)
				st.scatter(v, key, e.g.Neighbors(v))
				if s.undirected {
					st.scatter(v, key, tr.Neighbors(v))
				}
			}
		}
	}
	tcs := st.taskCounters(len(tasks), k, w.Pairs != nil)
	e.cl.RunTasks(len(tasks), func(t int) { run(tasks[t], &tcs[t]) })
	combineCounters(w, tasks, tcs)

	// Merge phase: fixed chunks over the vertex space, each applying its
	// own vertices' improvements; the applied key is the slot's value, so
	// the buffer mirrors the state again afterwards. A slot is lowered only
	// below the current key, so the dirty bits name exactly the blocks
	// holding an improvement, whatever order the scatter ran in, and a
	// chunk overlapping none has nothing to apply. The next frontier's
	// bytes live in the state's frontier buffer: chunk c's improved
	// vertices all lie in [lo, hi), so it writes them to out[lo:] and
	// records its count, and a serial copy after the barrier closes the
	// gaps in chunk order. The frontier comes out sorted ascending however
	// the chunks were scheduled.
	out := st.frontier[st.next]
	st.next ^= 1
	chunks := shardCount(n)
	e.cl.RunTasks(chunks, func(c int) {
		lo, hi := c*n/chunks, (c+1)*n/chunks
		st.counts[c], st.fedges[c] = 0, 0
		if lo == hi || !st.dirtyIn(lo, hi) {
			return
		}
		i := lo
		var fe int64
		for v := lo; v < hi; v++ {
			id := graph.VertexID(v)
			if key := st.prop[v]; key < s.cur(id) {
				s.apply(id, key)
				out[i] = id
				i++
				fe += int64(e.g.OutDegree(id))
			}
		}
		st.counts[c], st.fedges[c] = i-lo, fe
	})
	for i := range st.dirty {
		st.dirty[i].Store(0)
	}
	total := 0
	var fe int64
	for c := 0; c < chunks; c++ {
		total += copy(out[total:], out[c*n/chunks:c*n/chunks+st.counts[c]])
		fe += st.fedges[c]
	}
	return edgeMapOut{
		frontier:      subsetOf(n, out[:total:total], st.bitmap),
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

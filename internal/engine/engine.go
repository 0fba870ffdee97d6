// Package engine is the Gemini-like distributed graph engine of the
// reproduction: a vertex-centric, push-style, bulk-synchronous-parallel
// system running on the simulated cluster of internal/cluster.
//
// Per iteration, every machine processes the out-edges of the vertices it
// owns: each machine's work list is cut into fixed shards that run on the
// cluster's bounded worker pool (cluster.RunTasks), each shard writing only
// shard-private counters that are combined in fixed order after the
// barrier. The BSP timing is then settled by the cost model: an edge whose
// endpoints live on different machines costs a message, and the iteration
// lasts as long as its slowest machine. PageRank and Connected Components
// are the two iteration-based applications the paper runs on Gemini (§4.1);
// BFS is included as the natural third traversal workload.
package engine

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"bpart/internal/cluster"
	"bpart/internal/fault"
	"bpart/internal/graph"
	"bpart/internal/telemetry"
)

// Engine binds a graph, a placement and a cost model.
type Engine struct {
	g     *graph.Graph
	cl    *cluster.Cluster
	tasks []machineShard    // fixed shard decomposition of cl's owned lists
	tel   telemetry.Tracer  // run-level spans; supersteps come from cl
	flt   *fault.Controller // nil = fault injection disabled

	// Per-placement cut degrees (see accounting.go): cutOut[v] counts v's
	// out-neighbors owned by another machine, cutIn[v] its in-neighbors
	// (over g.In(), the graph's own reverse). Built on demand, dropped by
	// reshard.
	cutMu         sync.Mutex
	cutOut, cutIn []int32

	// spare is the edge-map kernel state the last frontier Run left, nil
	// while a Run holds it (see takeKernelState).
	spare atomic.Pointer[kernelState]
}

// New builds an engine for g with the given vertex→machine assignment.
func New(g *graph.Graph, assignment []int, machines int, model cluster.CostModel) (*Engine, error) {
	if g == nil {
		return nil, fmt.Errorf("engine: nil graph")
	}
	if len(assignment) != g.NumVertices() {
		return nil, fmt.Errorf("engine: %d assignments for %d vertices", len(assignment), g.NumVertices())
	}
	cl, err := cluster.New(assignment, machines, model)
	if err != nil {
		return nil, err
	}
	e := &Engine{g: g, cl: cl, tel: telemetry.Nop()}
	e.reshard()
	return e, nil
}

// Cluster exposes the underlying simulated cluster.
func (e *Engine) Cluster() *cluster.Cluster { return e.cl }

// Graph returns the graph the engine computes over.
func (e *Engine) Graph() *graph.Graph { return e.g }

// SetFaults attaches (or with nil detaches) a fault controller. The
// controller must have been built on this engine's cluster. Every
// algorithm drives its supersteps through run, so every subsequent run —
// PageRank push and pull, ConnectedComponents, BFS, BFSDirectionOptimizing,
// SSSP, KCore — executes under the schedule: checkpoints at interval
// barriers, crashes rolled back (or restreamed, per policy), and the
// result's Recovery field carries the RecoveryStats.
func (e *Engine) SetFaults(ctl *fault.Controller) error {
	if ctl != nil && ctl.Cluster() != e.cl {
		return fmt.Errorf("engine: fault controller bound to a different cluster")
	}
	e.flt = ctl
	return nil
}

// reshard cuts the cluster's owned lists into shards: at construction,
// and after degraded-mode restreaming moved vertices off a dead machine.
// The cut degrees describe the old placement, so they are dropped and
// rebuilt on the next push superstep.
func (e *Engine) reshard() {
	e.tasks = shardLists(nil, e.cl.NumMachines(), e.cl.Owned)
	e.cutMu.Lock()
	e.cutOut, e.cutIn = nil, nil
	e.cutMu.Unlock()
}

// run drives one algorithm's supersteps through the fault package's BSP
// loop — under the attached controller, or bare when there is none.
// checkpoint captures the algorithm's mutable state and returns the closure
// that copies it back; after a restream the engine reshards the cluster's
// new lists.
func (e *Engine) run(step func(it int) (cluster.IterationStats, bool), checkpoint func() func()) (cluster.RunStats, *fault.RecoveryStats) {
	return e.flt.Run(fault.Program{
		Step:       step,
		Checkpoint: checkpoint,
		Reassign:   e.reshard,
	})
}

// SetTelemetry implements telemetry.Instrumentable: the tracer receives one
// run-level span per algorithm invocation and — via the underlying cluster
// — one "cluster.superstep" record per BSP iteration carrying the
// IterationStats (a JSONL trace also records each run span's host time and
// alloc/GC deltas). reg (may be nil) is teed beside the tracer (see
// telemetry.Instrumentable).
func (e *Engine) SetTelemetry(tr telemetry.Tracer, reg *telemetry.Registry) {
	e.tel = telemetry.Tee(tr, reg)
	e.cl.SetTelemetry(e.tel, nil)
}

// SetTranspose checks tr's shape against the engine's graph and installs
// nothing: every engine reads the graph's own reverse, g.In(), which every
// engine over the same graph already shares.
//
// Deprecated: the engine needs no transpose. ROADMAP item 7(a) deletes this
// method together with its last caller.
func (e *Engine) SetTranspose(tr *graph.Graph) error {
	if tr == nil {
		return fmt.Errorf("engine: nil transpose")
	}
	if tr.NumVertices() != e.g.NumVertices() || tr.NumEdges() != e.g.NumEdges() {
		return fmt.Errorf("engine: transpose shape %v does not match graph %v", tr, e.g)
	}
	return nil
}

// PRResult is the outcome of a PageRank run.
type PRResult struct {
	Ranks []float64
	Stats cluster.RunStats
	// Recovery is set when the run executed under a fault controller.
	Recovery *fault.RecoveryStats
}

// pageRank is the state the push and pull modes share: the rank vector and
// the per-iteration contribution pre-phase's buffers.
type pageRank struct {
	damping  float64
	ranks    []float64
	contrib  []float64 // ranks[v] / outdeg(v), refreshed by contributions
	dangling []float64 // per-chunk dangling-mass partials
}

func (e *Engine) newPageRank(iters int, damping float64) (*pageRank, error) {
	if iters <= 0 {
		return nil, fmt.Errorf("engine: PageRank iters = %d", iters)
	}
	if damping < 0 || damping >= 1 {
		return nil, fmt.Errorf("engine: damping = %v, want [0,1)", damping)
	}
	n := e.g.NumVertices()
	pr := &pageRank{
		damping:  damping,
		ranks:    make([]float64, n),
		contrib:  make([]float64, n),
		dangling: make([]float64, shardCount(n)),
	}
	for v := range pr.ranks {
		pr.ranks[v] = 1 / float64(n)
	}
	return pr, nil
}

// contributions is the pre-phase of an iteration: per-vertex contribution
// and dangling mass, per-chunk partials reduced in chunk order. It returns
// the rank every vertex receives before its in-neighbors' contributions.
func (e *Engine) contributions(pr *pageRank) (base float64) {
	n := e.g.NumVertices()
	ranks, contrib := pr.ranks, pr.contrib
	e.chunkMap(n, func(c, lo, hi int) {
		var dang float64
		for v := lo; v < hi; v++ {
			if d := e.g.OutDegree(graph.VertexID(v)); d > 0 {
				contrib[v] = ranks[v] / float64(d)
			} else {
				contrib[v] = 0
				dang += ranks[v]
			}
		}
		pr.dangling[c] = dang
	})
	var danglingSum float64
	for _, d := range pr.dangling {
		danglingSum += d
	}
	return (1-pr.damping)/float64(n) + pr.damping*danglingSum/float64(n)
}

// PageRank runs the classic damped PageRank for a fixed number of
// iterations (the paper runs ten), push mode on the parallel kernel. The
// communication accounting is push-semantics exactly as before — every
// out-edge is traversed and a cut out-edge costs its owner one message —
// while the floating-point accumulation is per-destination over the
// transpose in adjacency order, so each vertex's sum is produced by
// exactly one chunk and the ranks are bit-identical at any worker count
// (and across placements).
func (e *Engine) PageRank(iters int, damping float64) (*PRResult, error) {
	pr, err := e.newPageRank(iters, damping)
	if err != nil {
		return nil, err
	}
	n := e.g.NumVertices()
	k := e.cl.NumMachines()
	tr := e.g.In()
	ranks, contrib := pr.ranks, pr.contrib

	res := &PRResult{}
	step := func(it int) (cluster.IterationStats, bool) {
		base := e.contributions(pr)

		// Push accounting: every owned vertex pushes along all its
		// out-edges, sharded on the worker pool, integer counters only.
		w := e.cl.NewCounters()
		acct := e.pushAccounting(w, nil)
		tasks := e.tasks
		tcs := newTaskCounters(len(tasks), k, w.Pairs != nil)
		e.cl.RunTasks(len(tasks), func(t int) {
			ts, tc := tasks[t], &tcs[t]
			for _, v := range e.cl.Owned(ts.m)[ts.lo:ts.hi] {
				tc.verts++
				acct.charge(tc, ts.m, v)
			}
		})
		combineCounters(w, tasks, tcs)

		// Rank update: per-destination sums in transpose adjacency order.
		e.chunkMap(n, func(_, lo, hi int) {
			for v := lo; v < hi; v++ {
				var sum float64
				for _, u := range tr.Neighbors(graph.VertexID(v)) {
					sum += contrib[u]
				}
				ranks[v] = base + damping*sum
			}
		})
		return e.cl.FinishIteration(w), it+1 == iters
	}
	checkpoint := func() func() {
		saved := slices.Clone(ranks)
		return func() { copy(ranks, saved) }
	}
	sp := e.tel.Span("engine.pagerank",
		telemetry.Int("max_iters", iters),
		telemetry.Float("damping", damping))
	res.Stats, res.Recovery = e.run(step, checkpoint)
	res.Ranks = ranks
	sp.End(
		telemetry.Int("iterations", len(res.Stats.Iterations)),
		telemetry.Float("sim_time_us", res.Stats.TotalTime()),
		telemetry.Int64("messages", res.Stats.TotalMessages()))
	return res, nil
}

// CCResult is the outcome of a Connected Components run.
type CCResult struct {
	Labels     []uint32
	Components int
	Stats      cluster.RunStats
	// Recovery is set when the run executed under a fault controller.
	Recovery *fault.RecoveryStats
}

// ConnectedComponents runs frontier-based label propagation over the
// undirected closure (out- and in-edges) until convergence, computing weak
// components. maxIters <= 0 means "until convergence". The propagation is
// one edge-map per superstep: the frontier (initially every vertex)
// scatters labels with a min-combine, and the vertices whose label
// improved form the next frontier.
func (e *Engine) ConnectedComponents(maxIters int) (*CCResult, error) {
	n := e.g.NumVertices()
	labels := make([]uint32, n)
	for v := range labels {
		labels[v] = uint32(v)
	}
	spec := &edgeMapSpec{
		key:        func(src graph.VertexID) uint64 { return uint64(labels[src]) },
		cur:        func(v graph.VertexID) uint64 { return uint64(labels[v]) },
		apply:      func(v graph.VertexID, key uint64) { labels[v] = uint32(key) },
		undirected: true,
	}
	st := e.takeKernelState()
	st.bind(spec)
	frontier := fullSubset(st.bitmap)
	step := func(it int) (cluster.IterationStats, bool) {
		w := e.cl.NewCounters()
		frontier = e.edgeMap(st, frontier, 0, w).frontier
		return e.cl.FinishIteration(w), frontier.Len() == 0 || it+1 == maxIters
	}
	checkpoint := func() func() {
		saved, members := slices.Clone(labels), subsetMembers(frontier)
		return func() {
			copy(labels, saved)
			st.syncProposals()
			frontier = SubsetFromVertices(n, members)
		}
	}
	res := &CCResult{}
	sp := e.tel.Span("engine.cc", telemetry.Int("max_iters", maxIters))
	res.Stats, res.Recovery = e.run(step, checkpoint)
	res.Labels = labels
	// Labels are vertex IDs, so distinct labels count in a |V| bitmap: the
	// state's, which no frontier holds once the run is over.
	seen := st.bitmap
	clear(seen)
	for _, l := range labels {
		if !seen[l] {
			seen[l] = true
			res.Components++
		}
	}
	e.putKernelState(st)
	sp.End(
		telemetry.Int("iterations", len(res.Stats.Iterations)),
		telemetry.Int("components", res.Components),
		telemetry.Float("sim_time_us", res.Stats.TotalTime()))
	return res, nil
}

// BFSResult is the outcome of a breadth-first search.
type BFSResult struct {
	Dist    []int32 // -1 = unreachable
	Reached int
	Stats   cluster.RunStats
	// Recovery is set when the run executed under a fault controller.
	Recovery *fault.RecoveryStats
}

// BFS runs a BSP breadth-first search over out-edges from source, every
// level a top-down push.
func (e *Engine) BFS(source graph.VertexID) (*BFSResult, error) {
	return e.bfs(source, false)
}

// BFSDirectionOptimizing runs Beamer-style direction-optimizing BFS: the
// classic top-down frontier expansion switches to bottom-up (every
// unvisited vertex scans its in-neighbors for a frontier parent) when the
// frontier's out-edge volume crosses |E|/alpha, and back when the frontier
// shrinks below |V|/beta. On small-world graphs the bottom-up phase skips
// the bulk of the edge work in the two or three "fat" middle levels —
// the same optimization Gemini's dense mode implements.
//
// Distances are identical to BFS; only the work (and therefore the
// simulated time) differs.
func (e *Engine) BFSDirectionOptimizing(source graph.VertexID) (*BFSResult, error) {
	return e.bfs(source, true)
}

// bfs is the one breadth-first search behind both: one edge-map per level,
// superstep it settling depth it+1. directionOptimizing is the kernel's
// auto mode — direction switching with early-exit pull scans.
func (e *Engine) bfs(source graph.VertexID, directionOptimizing bool) (*BFSResult, error) {
	n := e.g.NumVertices()
	if int(source) >= n {
		return nil, fmt.Errorf("engine: BFS source %d out of range", source)
	}
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[source] = 0
	frontier := SubsetFromVertices(n, []graph.VertexID{source})
	// The frontier's out-edge volume, the auto mode's switching input.
	frontierEdges := int64(e.g.OutDegree(source))
	var depth int32
	spec := &edgeMapSpec{
		key: func(graph.VertexID) uint64 { return uint64(depth) },
		cur: func(v graph.VertexID) uint64 {
			if dist[v] < 0 {
				return unsetKey
			}
			return uint64(dist[v])
		},
		apply:     func(v graph.VertexID, key uint64) { dist[v] = int32(key) },
		auto:      directionOptimizing,
		stopEarly: directionOptimizing,
	}
	st := e.takeKernelState()
	st.bind(spec)
	step := func(it int) (cluster.IterationStats, bool) {
		depth = int32(it) + 1
		w := e.cl.NewCounters()
		out := e.edgeMap(st, frontier, frontierEdges, w)
		frontier, frontierEdges = out.frontier, out.frontierEdges
		return e.cl.FinishIteration(w), frontier.Len() == 0
	}
	checkpoint := func() func() {
		saved, members, edges := slices.Clone(dist), subsetMembers(frontier), frontierEdges
		return func() {
			copy(dist, saved)
			st.syncProposals()
			frontier, frontierEdges = SubsetFromVertices(n, members), edges
		}
	}
	res := &BFSResult{}
	sp := e.tel.Span("engine.bfs", telemetry.Int("source", int(source)))
	res.Stats, res.Recovery = e.run(step, checkpoint)
	e.putKernelState(st)
	res.Dist = dist
	for _, d := range dist {
		if d >= 0 {
			res.Reached++
		}
	}
	sp.End(
		telemetry.Int("iterations", len(res.Stats.Iterations)),
		telemetry.Int("reached", res.Reached),
		telemetry.Float("sim_time_us", res.Stats.TotalTime()))
	return res, nil
}

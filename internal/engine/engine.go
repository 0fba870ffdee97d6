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
	"sync"

	"bpart/internal/cluster"
	"bpart/internal/fault"
	"bpart/internal/graph"
	"bpart/internal/telemetry"
)

// Engine binds a graph, a placement and a cost model.
type Engine struct {
	g     *graph.Graph
	cl    *cluster.Cluster
	owned [][]graph.VertexID  // vertices per machine
	tasks []machineShard      // fixed shard decomposition of owned
	tel   telemetry.Tracer    // run-level spans; supersteps come from cl
	reg   *telemetry.Registry // run-level histograms; superstep metrics come from cl
	flt   *fault.Controller   // nil = fault injection disabled

	trMu sync.Mutex
	tr   *graph.Graph // transpose, built on demand (CC uses both directions)

	// Per-placement cut degrees (see accounting.go): cutOut[v] counts v's
	// out-neighbors owned by another machine, cutIn[v] its in-neighbors.
	// Built on demand like the transpose, dropped by reassign.
	cutMu         sync.Mutex
	cutOut, cutIn []int32
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
	e.reassign(assignment)
	return e, nil
}

// Cluster exposes the underlying simulated cluster.
func (e *Engine) Cluster() *cluster.Cluster { return e.cl }

// Graph returns the graph the engine computes over.
func (e *Engine) Graph() *graph.Graph { return e.g }

// SetFaults attaches (or with nil detaches) a fault controller. The
// controller must have been built on this engine's cluster; every
// subsequent algorithm run then executes under its schedule: checkpoints
// at interval barriers, crashes rolled back (or restreamed, per policy),
// and the run's result structs carry the RecoveryStats.
func (e *Engine) SetFaults(ctl *fault.Controller) error {
	if ctl != nil && ctl.Cluster() != e.cl {
		return fmt.Errorf("engine: fault controller bound to a different cluster")
	}
	e.flt = ctl
	return nil
}

// reassign rebuilds every ownership-derived structure: at construction,
// and after degraded-mode restreaming moved vertices off a dead machine.
// The cut degrees describe the old placement, so they are dropped and
// rebuilt on the next push superstep.
func (e *Engine) reassign(assignment []int) {
	owned := make([][]graph.VertexID, e.cl.NumMachines())
	for v, m := range assignment {
		owned[m] = append(owned[m], graph.VertexID(v))
	}
	e.owned = owned
	e.tasks = shardLists(owned)
	e.cutMu.Lock()
	e.cutOut, e.cutIn = nil, nil
	e.cutMu.Unlock()
}

// prSnap, ccSnap and bfsSnap capture each algorithm's complete mutable
// state at a checkpoint barrier, including the loop position: restore puts
// the loop variable back to the checkpointed superstep, and the loop's own
// increment then re-executes the first lost superstep.
type prSnap struct {
	ranks []float64
	delta float64
	it    int
}

type ccSnap struct {
	labels   []uint32
	frontier []graph.VertexID
	it       int
}

type bfsSnap struct {
	dist     []int32
	frontier []graph.VertexID
	depth    int32
}

// SetTelemetry implements telemetry.Instrumentable: the tracer receives one
// run-level span per algorithm invocation and — via the underlying cluster
// — one "cluster.superstep" record per BSP iteration carrying the
// IterationStats.
func (e *Engine) SetTelemetry(tr telemetry.Tracer, reg *telemetry.Registry) {
	e.tel = telemetry.Safe(tr)
	e.reg = reg
	e.cl.SetTelemetry(tr, reg)
}

// SetResourceProbe implements telemetry.Probeable by forwarding to the
// underlying cluster: every BSP superstep then emits one
// "cluster.superstep" resource lap (real host time and alloc/GC activity,
// not simulated time).
func (e *Engine) SetResourceProbe(p telemetry.PhaseProbe) { e.cl.SetResourceProbe(p) }

func (e *Engine) transpose() *graph.Graph {
	e.trMu.Lock()
	defer e.trMu.Unlock()
	if e.tr == nil {
		e.tr = e.g.Transpose()
	}
	return e.tr
}

// SetTranspose installs a precomputed transpose of the engine's graph,
// letting callers that build many engines over the same graph (one per
// partitioning scheme, as the experiment harness does) share the expensive
// reversed adjacency instead of rebuilding it per engine.
func (e *Engine) SetTranspose(tr *graph.Graph) error {
	if tr.NumVertices() != e.g.NumVertices() || tr.NumEdges() != e.g.NumEdges() {
		return fmt.Errorf("engine: transpose shape %v does not match graph %v", tr, e.g)
	}
	e.trMu.Lock()
	defer e.trMu.Unlock()
	e.tr = tr
	return nil
}

// PRResult is the outcome of a PageRank run.
type PRResult struct {
	Ranks []float64
	Stats cluster.RunStats
	// Delta is the final iteration's L1 rank change (set by the
	// tolerance-based variants).
	Delta float64
	// Recovery is set when the run executed under a fault controller.
	Recovery *fault.RecoveryStats
}

// PageRank runs the classic damped PageRank for a fixed number of
// iterations (the paper runs ten).
func (e *Engine) PageRank(iters int, damping float64) (*PRResult, error) {
	return e.pageRankPush(iters, damping, 0)
}

// PageRankUntil runs push-mode PageRank until the L1 rank change drops
// below tol (capped at maxIters iterations).
func (e *Engine) PageRankUntil(maxIters int, damping, tol float64) (*PRResult, error) {
	if tol <= 0 {
		return nil, fmt.Errorf("engine: tolerance = %v, want > 0", tol)
	}
	return e.pageRankPush(maxIters, damping, tol)
}

// pageRankPush is push-mode PageRank on the parallel kernel. The
// communication accounting is push-semantics exactly as before — every
// out-edge is traversed and a cut out-edge costs its owner one message —
// while the floating-point accumulation is per-destination over the
// transpose in adjacency order, so each vertex's sum is produced by
// exactly one chunk and the ranks are bit-identical at any worker count
// (and across placements).
func (e *Engine) pageRankPush(iters int, damping, tol float64) (*PRResult, error) {
	if iters <= 0 {
		return nil, fmt.Errorf("engine: PageRank iters = %d", iters)
	}
	if damping < 0 || damping >= 1 {
		return nil, fmt.Errorf("engine: damping = %v, want [0,1)", damping)
	}
	n := e.g.NumVertices()
	k := e.cl.NumMachines()
	tr := e.transpose()
	ranks := make([]float64, n)
	for v := range ranks {
		ranks[v] = 1 / float64(n)
	}
	contrib := make([]float64, n)
	chunks := shardCount(n)
	dangling := make([]float64, chunks)
	deltas := make([]float64, chunks)

	res := &PRResult{}
	it := -1 // the initial snapshot is "superstep -1": restore replays from 0
	if e.flt != nil {
		err := e.flt.BeginRun(fault.Hooks{
			Save: func() any {
				return &prSnap{ranks: append([]float64(nil), ranks...), delta: res.Delta, it: it}
			},
			Restore: func(s any) {
				sn := s.(*prSnap)
				copy(ranks, sn.ranks)
				res.Delta = sn.delta
				it = sn.it
			},
			Reassign: func(dead int, assignment []int) { e.reassign(assignment) },
		})
		if err != nil {
			return nil, err
		}
	}
	sp := e.tel.Span("engine.pagerank",
		telemetry.Int("max_iters", iters),
		telemetry.Float("damping", damping),
		telemetry.Float("tol", tol))
	for it = 0; it < iters; it++ {
		// Pre-phase: per-vertex contribution and dangling mass, per-chunk
		// partials reduced in chunk order.
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
			dangling[c] = dang
		})
		var danglingSum float64
		for _, d := range dangling {
			danglingSum += d
		}
		base := (1-damping)/float64(n) + damping*danglingSum/float64(n)

		// Push accounting: every owned vertex pushes along all its
		// out-edges, sharded on the worker pool, integer counters only.
		w := e.cl.NewCounters()
		acct := e.pushAccounting(w, nil)
		tasks := e.tasks
		tcs := newTaskCounters(len(tasks), k, w.Pairs != nil)
		e.cl.RunTasks(len(tasks), func(t int) {
			ts, tc := tasks[t], &tcs[t]
			for _, v := range e.owned[ts.m][ts.lo:ts.hi] {
				tc.verts++
				acct.charge(tc, ts.m, v)
			}
		})
		combineCounters(w, tasks, tcs)

		// Rank update: per-destination sums in transpose adjacency order.
		e.chunkMap(n, func(c, lo, hi int) {
			var delta float64
			for v := lo; v < hi; v++ {
				var sum float64
				for _, u := range tr.Neighbors(graph.VertexID(v)) {
					sum += contrib[u]
				}
				next := base + damping*sum
				d := next - ranks[v]
				if d < 0 {
					d = -d
				}
				delta += d
				ranks[v] = next
			}
			deltas[c] = delta
		})
		res.Delta = 0
		for _, d := range deltas {
			res.Delta += d
		}
		res.Stats.Add(e.cl.FinishIteration(w))
		if e.flt != nil && e.flt.EndSuperstep(&res.Stats) == fault.Restored {
			continue
		}
		if tol > 0 && res.Delta < tol {
			break
		}
	}
	if e.flt != nil {
		rec := e.flt.Finish(&res.Stats)
		res.Recovery = &rec
	}
	res.Ranks = ranks
	e.reg.Histogram("engine_run_sim_time_us").Observe(res.Stats.TotalTime())
	sp.End(
		telemetry.Int("iterations", len(res.Stats.Iterations)),
		telemetry.Float("delta", res.Delta),
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
	frontier := FullVertexSubset(n)
	st := e.newKernelState()
	spec := &edgeMapSpec{
		value:      func(src, dst graph.VertexID) uint64 { return uint64(labels[src]) },
		cur:        func(v graph.VertexID) uint64 { return uint64(labels[v]) },
		apply:      func(v graph.VertexID, key uint64) { labels[v] = uint32(key) },
		undirected: true,
	}
	res := &CCResult{}
	it := -1
	if e.flt != nil {
		err := e.flt.BeginRun(fault.Hooks{
			Save: func() any {
				return &ccSnap{
					labels:   append([]uint32(nil), labels...),
					frontier: subsetMembers(frontier),
					it:       it,
				}
			},
			Restore: func(s any) {
				sn := s.(*ccSnap)
				copy(labels, sn.labels)
				frontier = SubsetFromVertices(n, append([]graph.VertexID(nil), sn.frontier...))
				it = sn.it
			},
			Reassign: func(dead int, assignment []int) { e.reassign(assignment) },
		})
		if err != nil {
			return nil, err
		}
	}
	sp := e.tel.Span("engine.cc", telemetry.Int("max_iters", maxIters))
	for it = 0; maxIters <= 0 || it < maxIters; it++ {
		w := e.cl.NewCounters()
		out := e.edgeMap(spec, st, frontier, 0, w)
		frontier = out.frontier
		res.Stats.Add(e.cl.FinishIteration(w))
		if e.flt != nil && e.flt.EndSuperstep(&res.Stats) == fault.Restored {
			continue
		}
		if frontier.Len() == 0 {
			break
		}
	}
	if e.flt != nil {
		rec := e.flt.Finish(&res.Stats)
		res.Recovery = &rec
	}
	res.Labels = labels
	// Labels are vertex IDs, so distinct labels count in a |V| bitmap.
	seen := make([]bool, n)
	for _, l := range labels {
		if !seen[l] {
			seen[l] = true
			res.Components++
		}
	}
	e.reg.Histogram("engine_run_sim_time_us").Observe(res.Stats.TotalTime())
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

// BFS runs a BSP breadth-first search over out-edges from source.
func (e *Engine) BFS(source graph.VertexID) (*BFSResult, error) {
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
	st := e.newKernelState()
	res := &BFSResult{}
	depth := int32(0)
	spec := &edgeMapSpec{
		value: func(src, dst graph.VertexID) uint64 { return uint64(depth) },
		cur: func(v graph.VertexID) uint64 {
			if dist[v] < 0 {
				return unsetKey
			}
			return uint64(dist[v])
		},
		apply: func(v graph.VertexID, key uint64) { dist[v] = int32(key) },
	}
	if e.flt != nil {
		err := e.flt.BeginRun(fault.Hooks{
			Save: func() any {
				return &bfsSnap{
					dist:     append([]int32(nil), dist...),
					frontier: subsetMembers(frontier),
					depth:    depth,
				}
			},
			Restore: func(s any) {
				sn := s.(*bfsSnap)
				copy(dist, sn.dist)
				frontier = SubsetFromVertices(n, append([]graph.VertexID(nil), sn.frontier...))
				depth = sn.depth
			},
			Reassign: func(dead int, assignment []int) { e.reassign(assignment) },
		})
		if err != nil {
			return nil, err
		}
	}
	sp := e.tel.Span("engine.bfs", telemetry.Int("source", int(source)))
	for depth = 1; frontier.Len() > 0; depth++ {
		e.reg.Histogram("engine_bfs_frontier_vertices").Observe(float64(frontier.Len()))
		w := e.cl.NewCounters()
		out := e.edgeMap(spec, st, frontier, 0, w)
		frontier = out.frontier
		res.Stats.Add(e.cl.FinishIteration(w))
		if e.flt != nil && e.flt.EndSuperstep(&res.Stats) == fault.Restored {
			continue
		}
	}
	if e.flt != nil {
		rec := e.flt.Finish(&res.Stats)
		res.Recovery = &rec
	}
	res.Dist = dist
	for _, d := range dist {
		if d >= 0 {
			res.Reached++
		}
	}
	e.reg.Histogram("engine_run_sim_time_us").Observe(res.Stats.TotalTime())
	sp.End(
		telemetry.Int("iterations", len(res.Stats.Iterations)),
		telemetry.Int("reached", res.Reached),
		telemetry.Float("sim_time_us", res.Stats.TotalTime()))
	return res, nil
}

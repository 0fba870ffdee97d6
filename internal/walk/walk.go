// Package walk is the KnightKing-like distributed random-walk engine of the
// reproduction (§4.1): walker-centric, bulk-synchronous, running over the
// simulated cluster of internal/cluster.
//
// Walkers live on the machine that owns their current vertex. Every BSP
// iteration moves each active walker one step: steps executed on a machine
// are its computation load (the quantity plotted per machine in Figs 4 and
// 12), and a walker whose next vertex is owned by another machine is
// transferred — a "message walk", the communication metric of Fig 5(b).
// Machines run as concurrent goroutines with machine-private state and
// outboxes, and each machine draws from its own deterministic RNG stream,
// so results are reproducible regardless of scheduling.
//
// The five walk applications of the paper are supported: simple random
// walks, personalized PageRank (terminate with fixed probability per
// step), random walk with jump (teleport with fixed probability), random
// walk with domination (walk with per-step domination marking), DeepWalk
// (fixed-length uniform walks) and node2vec (second-order walks sampled by
// KnightKing-style rejection sampling).
package walk

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"bpart/internal/cluster"
	"bpart/internal/fault"
	"bpart/internal/graph"
	"bpart/internal/telemetry"
	"bpart/internal/xrand"
)

// Kind selects the walk application.
type Kind int

// The walk applications of §4.1.
const (
	Simple Kind = iota
	PPR
	RWJ
	RWD
	DeepWalk
	Node2Vec
)

// String returns the paper's name for the application.
func (k Kind) String() string {
	switch k {
	case Simple:
		return "SimpleWalk"
	case PPR:
		return "PPR"
	case RWJ:
		return "RWJ"
	case RWD:
		return "RWD"
	case DeepWalk:
		return "DeepWalk"
	case Node2Vec:
		return "node2vec"
	case BiasedWalk:
		return "BiasedWalk"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config parameterizes a walk run. Zero fields select per-Kind defaults in
// Normalize (PPR stop probability 0.1 and RWJ jump probability 0.2 follow
// §4.1; DeepWalk/node2vec default to longer walks than SimpleWalk).
type Config struct {
	Kind Kind
	// WalkersPerVertex starts this many walkers on every vertex
	// (the paper starts |V| or 5|V| walks). Default 1.
	WalkersPerVertex int
	// Steps is the walk length for fixed-length kinds and the step cap
	// for probabilistic ones. Default 4 (Simple/RWJ/RWD), 10
	// (DeepWalk/Node2Vec), 40 cap (PPR).
	Steps int
	// StopProb is PPR's per-step termination probability. Default 0.1.
	StopProb float64
	// JumpProb is RWJ's per-step teleport probability. Default 0.2.
	JumpProb float64
	// P and Q are node2vec's return and in-out parameters. Default 2.0
	// and 0.5.
	P, Q float64
	// Seed drives all walker randomness.
	Seed uint64
	// TrackVisits records per-vertex visit counts (needed by the PPR
	// distribution tests; RWD always tracks because domination marking
	// is its purpose).
	TrackVisits bool
	// CollectPaths records every walker's full vertex sequence (starting
	// vertex included) in Result.Paths — the walk corpus DeepWalk and
	// node2vec feed to skip-gram training.
	CollectPaths bool
	// Sources restricts walker starts to these vertices (each gets
	// WalkersPerVertex walkers). nil starts walkers on every vertex —
	// the paper's |V|-walks setting. A single-source PPR run with
	// TrackVisits yields that source's personalized PageRank estimate.
	Sources []graph.VertexID

	// node2vec's weights 1/P and 1/Q and maxW = max(1, 1/P, 1/Q),
	// derived by Normalize so that a Run computes them once.
	invP, invQ, maxW float64
}

// Normalize fills defaults, validates, and derives node2vec's weights.
func (c *Config) Normalize() error {
	if c.Kind < Simple || c.Kind > BiasedWalk {
		return fmt.Errorf("walk: unknown kind %d", int(c.Kind))
	}
	if c.WalkersPerVertex == 0 {
		c.WalkersPerVertex = 1
	}
	if c.WalkersPerVertex < 0 {
		return fmt.Errorf("walk: WalkersPerVertex = %d", c.WalkersPerVertex)
	}
	if c.Steps == 0 {
		switch c.Kind {
		case DeepWalk, Node2Vec:
			c.Steps = 10
		case PPR:
			c.Steps = 40
		default:
			c.Steps = 4
		}
	}
	if c.Steps < 0 || c.Steps > math.MaxInt32 {
		return fmt.Errorf("walk: Steps = %d", c.Steps)
	}
	if c.StopProb == 0 {
		c.StopProb = 0.1
	}
	if c.StopProb < 0 || c.StopProb > 1 {
		return fmt.Errorf("walk: StopProb = %v", c.StopProb)
	}
	if c.JumpProb == 0 {
		c.JumpProb = 0.2
	}
	if c.JumpProb < 0 || c.JumpProb > 1 {
		return fmt.Errorf("walk: JumpProb = %v", c.JumpProb)
	}
	if c.P == 0 {
		c.P = 2.0
	}
	if c.Q == 0 {
		c.Q = 0.5
	}
	if c.P < 0 || c.Q < 0 {
		return fmt.Errorf("walk: P = %v, Q = %v, want > 0", c.P, c.Q)
	}
	if c.Kind == RWD {
		c.TrackVisits = true
	}
	c.invP, c.invQ = 1/c.P, 1/c.Q
	c.maxW = 1.0
	if c.invP > c.maxW {
		c.maxW = c.invP
	}
	if c.invQ > c.maxW {
		c.maxW = c.invQ
	}
	return nil
}

// Engine binds a graph and a placement.
type Engine struct {
	g     *graph.Graph
	cl    *cluster.Cluster
	alias aliasCache        // per-vertex transition tables for BiasedWalk
	tel   telemetry.Tracer  // run-level spans; supersteps come from cl
	flt   *fault.Controller // nil = fault injection disabled
	// spare holds the walker buffers the last Run left, nil while a Run
	// holds them (see Run).
	spare atomic.Pointer[walkerSet]
}

// walkerSet is the walker buffers a Run steps in: each machine's active
// list and its row of the k×k outboxes.
type walkerSet struct {
	active [][]walker
	outbox [][][]walker
}

// New builds a walk engine for g with the given vertex→machine assignment.
func New(g *graph.Graph, assignment []int, machines int, model cluster.CostModel) (*Engine, error) {
	if g == nil {
		return nil, fmt.Errorf("walk: nil graph")
	}
	if len(assignment) != g.NumVertices() {
		return nil, fmt.Errorf("walk: %d assignments for %d vertices", len(assignment), g.NumVertices())
	}
	cl, err := cluster.New(assignment, machines, model)
	if err != nil {
		return nil, err
	}
	return &Engine{g: g, cl: cl, alias: aliasCache{g: g}, tel: telemetry.Nop()}, nil
}

// Cluster exposes the underlying simulated cluster.
func (e *Engine) Cluster() *cluster.Cluster { return e.cl }

// Graph returns the graph the engine walks over.
func (e *Engine) Graph() *graph.Graph { return e.g }

// SetFaults attaches (or with nil detaches) a fault controller built on
// this engine's cluster. Subsequent Runs execute under its schedule.
func (e *Engine) SetFaults(ctl *fault.Controller) error {
	if ctl != nil && ctl.Cluster() != e.cl {
		return fmt.Errorf("walk: fault controller bound to a different cluster")
	}
	e.flt = ctl
	return nil
}

// SetTelemetry implements telemetry.Instrumentable: the tracer receives one
// "walk.run" span per Run and — via the underlying cluster — one
// "cluster.superstep" record per BSP iteration, so a DeepWalk run produces
// the full machine-level timeline of Figs 12/13 (a JSONL trace also
// records the run span's host time and alloc/GC deltas). reg (may be nil)
// is teed beside the tracer (see telemetry.Instrumentable).
func (e *Engine) SetTelemetry(tr telemetry.Tracer, reg *telemetry.Registry) {
	e.tel = telemetry.Tee(tr, reg)
	e.cl.SetTelemetry(e.tel, nil)
}

// walker is one active random walk. It is 16 bytes on purpose
// (TestWalkerIs16Bytes records why): its path lives in the run's arena.
type walker struct {
	cur  graph.VertexID
	prev graph.VertexID // node2vec second-order state
	// remaining counts the steps left. Every move both sets prev and
	// spends a step, so a walker has a prev exactly when remaining is
	// below Config.Steps.
	remaining int32
	slot      uint32 // the walker's index in the path arena
}

// hasPrev reports whether wk has moved, and so has a prev.
func (wk *walker) hasPrev(steps int) bool { return wk.remaining < int32(steps) }

// arena holds every walker's path when Config.CollectPaths is set: slot s
// owns cells [s·width, (s+1)·width), width = Steps+1. A live walker writes
// only past its current length and a finished path is never written again,
// so a checkpoint copies none of it.
type arena struct {
	cells []graph.VertexID
	width int
}

// record writes wk's current vertex at its position in its path.
func (a arena) record(wk *walker) {
	a.cells[int(wk.slot)*a.width+a.width-1-int(wk.remaining)] = wk.cur
}

// path returns wk's vertex sequence so far, capped at its length so that
// an append copies instead of writing into the next walker's cells.
func (a arena) path(wk *walker) []graph.VertexID {
	b := int(wk.slot) * a.width
	end := b + a.width - int(wk.remaining)
	return a.cells[b:end:end]
}

// Result is the outcome of a walk run.
type Result struct {
	Stats cluster.RunStats
	// TotalSteps is the total number of walk steps executed.
	TotalSteps int64
	// MessageWalks counts walker transfers between machines (Fig 5b).
	MessageWalks int64
	// Visits[v] counts arrivals at v (nil unless tracked).
	Visits []int64
	// Paths holds every walker's vertex sequence when
	// Config.CollectPaths is set (order unspecified). The paths share one
	// arena; each is capped at its length, so appending to one copies it
	// and leaves its neighbours intact.
	Paths [][]graph.VertexID
	// Traffic[from][to] counts walker transfers between each ordered
	// machine pair — the communication pattern behind MessageWalks.
	Traffic [][]int64
	// Finished counts walkers that terminated (all of them, at the end).
	Finished int64
	// Recovery is set when the run executed under a fault controller.
	// TotalSteps and Stats then include replayed supersteps — recovery
	// re-executes real work, and the run pays for it.
	Recovery *fault.RecoveryStats
}

// cloneWalkers copies every machine's active list. Walkers are plain
// values and their paths live in the arena, so each list is one clone.
func cloneWalkers(ws [][]walker) [][]walker {
	out := make([][]walker, len(ws))
	for m, list := range ws {
		out[m] = slices.Clone(list)
	}
	return out
}

// Run executes the configured walk to completion. Concurrent Runs on one
// engine are safe when it has no fault controller attached.
func (e *Engine) Run(cfg Config) (*Result, error) {
	if err := cfg.Normalize(); err != nil {
		return nil, err
	}
	n := e.g.NumVertices()
	k := e.cl.NumMachines()

	// Each machine's start vertices, ascending and each once: every vertex
	// it owns, or the sources it owns.
	starts := make([][]graph.VertexID, k)
	if cfg.Sources == nil {
		for m := range starts {
			starts[m] = e.cl.Owned(m)
		}
	} else {
		for _, v := range cfg.Sources {
			if int(v) >= n {
				return nil, fmt.Errorf("walk: source %d out of range [0,%d)", v, n)
			}
			m := e.cl.Owner(v)
			starts[m] = append(starts[m], v)
		}
		for m := range starts {
			slices.Sort(starts[m])
			starts[m] = slices.Compact(starts[m])
		}
	}
	// Count the walkers first: every active list is grown to at least its
	// machine's count, and the total must fit a walker's slot.
	totalStarts := 0
	for _, vs := range starts {
		totalStarts += len(vs)
	}
	if totalStarts > 0 && uint64(cfg.WalkersPerVertex) > math.MaxUint32/uint64(totalStarts) {
		return nil, fmt.Errorf("walk: %d starts × %d walkers per vertex exceed %d walkers", totalStarts, cfg.WalkersPerVertex, uint32(math.MaxUint32))
	}
	totalWalkers := totalStarts * cfg.WalkersPerVertex

	// The walker buffers outlive the Run: it takes the set the last Run
	// left, regrows a list only where this Run needs more room, and leaves
	// the set for the next. A Run that finds none (the engine's first, or
	// one beside another Run) makes its own, so no two Runs share one.
	set := e.spare.Swap(nil)
	if set == nil {
		set = &walkerSet{active: make([][]walker, k), outbox: make([][][]walker, k)}
		for m := range set.outbox {
			set.outbox[m] = make([][]walker, k)
		}
	}
	if cfg.Kind == BiasedWalk {
		e.alias.init() // before the tasks start, so they read the slots it made
	}

	// Per-machine state.
	active := set.active
	rngs := make([]xrand.RNG, k)
	base := xrand.New(cfg.Seed)
	var paths arena
	if cfg.CollectPaths {
		paths = arena{cells: make([]graph.VertexID, totalWalkers*(cfg.Steps+1)), width: cfg.Steps + 1}
	}
	var slot uint32
	for m := 0; m < k; m++ {
		rngs[m] = *base.Fork()
		if need := len(starts[m]) * cfg.WalkersPerVertex; cap(active[m]) < need {
			active[m] = make([]walker, 0, need)
		} else {
			active[m] = active[m][:0]
		}
		for _, v := range starts[m] {
			for i := 0; i < cfg.WalkersPerVertex; i++ {
				wk := walker{cur: v, remaining: int32(cfg.Steps), slot: slot}
				slot++
				if cfg.CollectPaths {
					paths.record(&wk)
				}
				active[m] = append(active[m], wk)
			}
		}
	}
	// finished[m] collects completed paths machine-locally; merge-phase
	// completions go straight to res.Paths.
	finished := make([][][]graph.VertexID, k)
	var visits []int64
	if cfg.TrackVisits {
		visits = make([]int64, n)
	}
	// outbox[from][to] carries migrating walkers; inboxes are merged
	// between supersteps, so machines never touch shared state. Every
	// merge empties them, so the set is left with them empty.
	outbox := set.outbox

	// One backing array under the k×k traffic rows, so a checkpoint is a
	// single slice copy.
	traffic := make([]int64, k*k)
	res := &Result{Visits: visits, Traffic: make([][]int64, k)}
	for m := range res.Traffic {
		res.Traffic[m] = traffic[m*k : (m+1)*k : (m+1)*k]
	}
	step := func(int) (cluster.IterationStats, bool) {
		w := e.cl.NewCounters()
		// One task per machine, each confined to its own RNG stream, active
		// list, outbox row and counter slots: bit-identical at any width.
		e.cl.RunTasks(k, func(m int) {
			// A task-local copy, stored back below: the k states are 8-byte
			// neighbours, and stepping on them in place shares a cache line.
			rng := rngs[m]
			out := outbox[m]
			var msgs int64
			var prow []int64
			if w.Pairs != nil {
				prow = w.Pairs[m]
			}
			list := active[m]
			kept := list[:0]
			var at [walkBatch]*graph.VertexID
			var next [walkBatch]graph.VertexID
			for b := 0; b < len(list); b += walkBatch {
				batch := list[b:min(b+walkBatch, len(list))]
				// Pass 1: every draw of the batch, in list order, so the
				// machine's stream is drawn as an unbatched loop draws it.
				for i := range batch {
					at[i] = e.pick(&batch[i], &cfg, &rng, &next[i])
				}
				// Pass 2: load the chosen targets. The loads do not depend
				// on each other, so their cache misses overlap.
				for i, p := range at[:len(batch)] {
					if p != nil {
						next[i] = *p
					}
				}
				// Pass 3: bookkeeping in list order. kept is written only at
				// indices at or below b+i, the walker being read, so the
				// in-place compaction never overwrites a walker not yet read.
				for i, wk := range batch {
					if at[i] == nil {
						// Termination event (PPR stop, dead end): the step
						// is consumed but the walker moves nowhere.
						if cfg.CollectPaths {
							finished[m] = append(finished[m], paths.path(&wk))
						}
						continue
					}
					wk.prev = wk.cur
					wk.cur = next[i]
					wk.remaining--
					if cfg.CollectPaths {
						paths.record(&wk)
					}
					dst := e.cl.Owner(wk.cur)
					if dst == m {
						// visits[wk.cur] is safe to write here: only its
						// owner ever touches it during a superstep.
						if cfg.TrackVisits {
							visits[wk.cur]++
						}
						if wk.remaining > 0 {
							kept = append(kept, wk)
						} else if cfg.CollectPaths {
							finished[m] = append(finished[m], paths.path(&wk))
						}
					} else {
						// Migration: a message walk. Visit counting and
						// (if steps remain) re-activation happen at
						// delivery in the sequential merge phase.
						msgs++
						if prow != nil {
							prow[dst]++
						}
						out[dst] = append(out[dst], wk)
					}
				}
			}
			rngs[m] = rng
			active[m] = kept
			// Every active walker spends one step; under RWD, domination
			// marking is an extra vertex update per step.
			w.Steps[m] = int64(len(list))
			if cfg.Kind == RWD {
				w.Vertices[m] = int64(len(list))
			}
			w.Messages[m] = msgs
		})
		// Merge phase: deliver outboxes.
		for from := 0; from < k; from++ {
			for to := 0; to < k; to++ {
				res.Traffic[from][to] += int64(len(outbox[from][to]))
				for _, wk := range outbox[from][to] {
					if cfg.TrackVisits {
						visits[wk.cur]++
					}
					if wk.remaining > 0 {
						active[to] = append(active[to], wk)
					} else if cfg.CollectPaths {
						res.Paths = append(res.Paths, paths.path(&wk))
					}
				}
				outbox[from][to] = outbox[from][to][:0]
			}
		}
		remaining := 0
		for m := range active {
			remaining += len(active[m])
		}
		return e.cl.FinishIteration(w), remaining == 0
	}
	prog := fault.Program{
		Step: step,
		// Active lists are rewritten in place every superstep, so they are
		// copied both ways. RNGs are plain value structs: copying one
		// freezes its machine's stream position exactly. The finished-path
		// lists only ever grow, by appending paths nothing writes again, so
		// their lengths are their checkpoint; a restored walker rewrites
		// only arena cells past its restored length.
		Checkpoint: func() func() {
			savedActive := cloneWalkers(active)
			savedRNGs := slices.Clone(rngs)
			finishedLen := make([]int, k)
			for m := range finished {
				finishedLen[m] = len(finished[m])
			}
			savedVisits, savedTraffic, pathsLen := slices.Clone(visits), slices.Clone(traffic), len(res.Paths)
			return func() {
				active = cloneWalkers(savedActive)
				copy(rngs, savedRNGs)
				for m := range finished {
					finished[m] = finished[m][:finishedLen[m]]
				}
				copy(visits, savedVisits)
				copy(traffic, savedTraffic)
				res.Paths = res.Paths[:pathsLen]
			}
		},
		// Migrate stranded walkers onto their vertices' new owners, machine
		// by machine in order, so the re-bucketing is deterministic.
		Reassign: func() {
			rebucketed := make([][]walker, k)
			for m := 0; m < k; m++ {
				for _, wk := range active[m] {
					rebucketed[e.cl.Owner(wk.cur)] = append(rebucketed[e.cl.Owner(wk.cur)], wk)
				}
			}
			active = rebucketed
		},
	}
	if totalWalkers == 0 {
		prog.Step = nil // nothing to do: no superstep is recorded
	}
	sp := e.tel.Span("walk.run",
		telemetry.String("kind", cfg.Kind.String()),
		telemetry.Int("walkers", totalWalkers),
		telemetry.Int("steps", cfg.Steps))
	res.Stats, res.Recovery = e.flt.Run(prog)
	set.active = active // a restore or Reassign may have replaced the lists
	e.spare.Store(set)
	if cfg.CollectPaths {
		for m := 0; m < k; m++ {
			res.Paths = append(res.Paths, finished[m]...)
		}
	}
	for _, it := range res.Stats.Iterations {
		for _, s := range it.Work.Steps {
			res.TotalSteps += s
		}
		for _, msg := range it.Work.Messages {
			res.MessageWalks += msg
		}
	}
	res.Finished = int64(totalWalkers)
	sp.End(
		telemetry.Int("iterations", len(res.Stats.Iterations)),
		telemetry.Int64("total_steps", res.TotalSteps),
		telemetry.Int64("message_walks", res.MessageWalks),
		telemetry.Float("sim_time_us", res.Stats.TotalTime()))
	return res, nil
}

// walkBatch is how many walkers a task picks for before it loads their
// targets. Picks draw in list order and bookkeeping follows list order, so
// no output depends on it.
const walkBatch = 64

// pick makes every draw of wk's next step — PPR's stop, RWJ's jump, the
// uniform index, the alias sample, node2vec's trials — without loading the
// chosen target. It returns nil when the walk ends on this step (the step
// is consumed but the walker moves nowhere), a pointer to the chosen cell
// of cur's CSR row, or to, into which it wrote a vertex it resolved itself
// (a teleport, or a second-order node2vec step).
func (e *Engine) pick(wk *walker, cfg *Config, rng *xrand.RNG, to *graph.VertexID) *graph.VertexID {
	switch cfg.Kind {
	case PPR:
		if rng.Bool(cfg.StopProb) {
			return nil
		}
	case RWJ:
		if rng.Bool(cfg.JumpProb) {
			*to = graph.VertexID(rng.Intn(e.g.NumVertices()))
			return to
		}
	}
	ns := e.g.Neighbors(wk.cur)
	if len(ns) == 0 {
		// Dead end: RWJ teleports, everything else terminates.
		if cfg.Kind == RWJ {
			*to = graph.VertexID(rng.Intn(e.g.NumVertices()))
			return to
		}
		return nil
	}
	switch {
	case cfg.Kind == Node2Vec && wk.hasPrev(cfg.Steps):
		*to = e.node2vecStep(wk, cfg, rng, ns)
		return to
	case cfg.Kind == BiasedWalk:
		return &ns[e.alias.table(wk.cur).Sample(rng)]
	}
	return &ns[rng.Intn(len(ns))]
}

// node2vecStep samples the second-order transition with KnightKing-style
// rejection sampling: propose a uniform out-neighbor x of cur, accept with
// probability w(x)/M where w(x) is 1/P when x is the previous vertex, 1
// when x is a neighbor of the previous vertex, and 1/Q otherwise, and M is
// the maximum of the three weights. A trial draws x, then r = Float64()·M,
// and accepts when r < w(x). Unless x is prev, r below both 1 and 1/Q
// accepts and r at or above both rejects without HasEdge's binary search
// (KnightKing's pre-acceptance): at the defaults P = 2, Q = 0.5, half the
// trials.
func (e *Engine) node2vecStep(wk *walker, cfg *Config, rng *xrand.RNG, ns []graph.VertexID) graph.VertexID {
	sure, never := min(1, cfg.invQ), max(1, cfg.invQ)
	for attempt := 0; attempt < 64; attempt++ {
		x := ns[rng.Intn(len(ns))]
		r := rng.Float64() * cfg.maxW
		switch {
		case x == wk.prev:
			if r < cfg.invP {
				return x
			}
		case r < sure:
			return x
		case r >= never:
			// Rejected, whatever x is.
		case e.g.HasEdge(wk.prev, x):
			if r < 1 {
				return x
			}
		case r < cfg.invQ:
			return x
		}
	}
	// Pathological rejection streak: fall back to first-order.
	return ns[rng.Intn(len(ns))]
}

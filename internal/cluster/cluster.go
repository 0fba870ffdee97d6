// Package cluster simulates the paper's testbed: a cluster of machines
// running bulk-synchronous-parallel (BSP) graph computations (§2.1, Fig 1).
//
// The paper's performance metrics — per-machine compute time per iteration
// (Fig 12), waiting-time ratio (Fig 13), normalized running time (Figs 14,
// 15) — are relative quantities determined by load balance and cut-edge
// traffic, not by absolute hardware speed. The simulation therefore charges
// deterministic unit costs per walk step, per edge traversal, per vertex
// update and per cross-machine message, and derives BSP timing exactly:
// within an iteration every machine computes in parallel, then exchanges
// messages, then all barrier; the iteration lasts as long as its slowest
// machine, and every faster machine's surplus is waiting time — the
// synchronization overhead BPart attacks.
package cluster

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"sync/atomic"

	"bpart/internal/pool"
	"bpart/internal/telemetry"
)

// CostModel holds unit costs in microseconds. Only ratios matter for the
// reproduced figures.
type CostModel struct {
	// StepCost is charged per random-walk step executed (walk engine).
	StepCost float64
	// EdgeCost is charged per edge traversed (iteration engine).
	EdgeCost float64
	// VertexCost is charged per vertex update (iteration engine).
	VertexCost float64
	// MessageCost is charged per cross-machine message sent.
	MessageCost float64
	// Latency is a fixed per-iteration barrier/network setup cost.
	Latency float64
	// CheckpointCost is charged per vertex written to (or read back from)
	// stable storage at a checkpoint or recovery barrier. Checkpoint time
	// therefore tracks per-machine vertex count — one of the two balance
	// dimensions — so vertex-skewed partitions pay for it at every
	// checkpoint barrier. Unused unless fault injection is enabled.
	CheckpointCost float64
	// Speeds, when non-nil, gives each machine a relative compute speed
	// (1.0 = nominal; 0.5 = half speed). It models heterogeneous
	// clusters, where uniformly balanced partitions are no longer the
	// optimum — the Hetero ablation quantifies this. Length must equal
	// the machine count.
	Speeds []float64
}

// DefaultCostModel approximates the paper's testbed ratios: a walk step or
// vertex update is ~10 ns of CPU, an edge traversal ~2 ns, and a message
// ~40 ns of effective per-message cost on a fast network with batching.
func DefaultCostModel() CostModel {
	return CostModel{
		StepCost:    0.010,
		EdgeCost:    0.002,
		VertexCost:  0.010,
		MessageCost: 0.040,
		Latency:     50,
		// A checkpointed vertex costs a few serialized words to stable
		// storage — pricier than an in-memory update, cheaper than a
		// network message plus ack.
		CheckpointCost: 0.025,
	}
}

// Cluster is a set of simulated machines plus the vertex→machine placement
// produced by a partitioner.
type Cluster struct {
	numMachines int
	owner       []int // vertex -> machine
	// owned[m] is machine m's vertices in ascending ID order: windows of
	// one |V| array, each capped at its length (see own).
	owned     [][]uint32
	model     CostModel
	dead      []bool // machine -> permanently failed
	disrupter Disrupter

	tr telemetry.Tracer
	// iter numbers finished supersteps for spans. Atomic because two runs
	// on one engine may finish supersteps concurrently.
	iter atomic.Int64

	// workers sizes the bounded goroutine pool RunTasks executes superstep
	// work on; < 1 (the default) means min(GOMAXPROCS, machines). 1 runs
	// every task inline on the caller — the sequential mode whose outputs
	// every parallel run must reproduce bit-for-bit.
	workers int

	// commMatrix enables per-superstep src→dst message matrix capture
	// (Counters.Pairs). Off by default: the K×K matrix costs one write per
	// cross-machine message, so only runs that want communication-topology
	// observability (tracestat comm, the BENCH comm section) pay for it.
	commMatrix bool
}

// Disruption perturbs one iteration's BSP timing. A fault injector supplies
// one per FinishIteration call; the zero value disrupts nothing.
type Disruption struct {
	// Slow[i] multiplies machine i's compute time (1 = nominal, 3 = a 3×
	// transient straggler). nil means no slowdown anywhere.
	Slow []float64
	// Resend[i] is the fraction of machine i's outgoing messages that had
	// to be retransmitted after a lost batch; machine i's comm time grows
	// by that fraction. nil means no loss anywhere.
	Resend []float64
	// ExtraLatency is added once to the iteration's wall-clock time — the
	// detection/resend round a lost batch forces through the barrier.
	ExtraLatency float64
}

// Disrupter supplies the Disruption for the superstep currently being
// finished. FinishIteration consults it once per call, on the caller's
// goroutine, so implementations need no locking against the cluster.
type Disrupter interface {
	Disrupt() Disruption
}

// SetDisrupter attaches (or with nil detaches) a fault injector.
func (c *Cluster) SetDisrupter(d Disrupter) { c.disrupter = d }

// New builds a cluster of k machines owning vertices per assignment.
func New(assignment []int, k int, model CostModel) (*Cluster, error) {
	if k <= 0 {
		return nil, fmt.Errorf("cluster: %d machines", k)
	}
	if model.Speeds != nil {
		if len(model.Speeds) != k {
			return nil, fmt.Errorf("cluster: %d speeds for %d machines", len(model.Speeds), k)
		}
		for i, s := range model.Speeds {
			if s <= 0 {
				return nil, fmt.Errorf("cluster: machine %d speed %v, want > 0", i, s)
			}
		}
	}
	for v, p := range assignment {
		if p < 0 || p >= k {
			return nil, fmt.Errorf("cluster: vertex %d owned by machine %d, want [0,%d)", v, p, k)
		}
	}
	// Copy the assignment: the caller keeps its slice, and a later
	// mutation of it must not silently re-home vertices mid-run.
	owner := append([]int(nil), assignment...)
	c := &Cluster{numMachines: k, owner: owner, model: model, tr: telemetry.Nop()}
	c.own()
	return c, nil
}

// own rebuilds every machine's vertex list from the placement: count
// first, then fill windows of one |V| array in ascending ID order. Each
// window is capped at its count, so an append to one machine's list copies
// instead of writing into the next one's.
func (c *Cluster) own() {
	owned := make([][]uint32, c.numMachines)
	count := make([]int, c.numMachines)
	for _, m := range c.owner {
		count[m]++
	}
	all := make([]uint32, len(c.owner))
	off := 0
	for m, n := range count {
		owned[m] = all[off : off : off+n]
		off += n
	}
	for v, m := range c.owner {
		owned[m] = append(owned[m], uint32(v))
	}
	c.owned = owned
}

// SetTelemetry implements telemetry.Instrumentable: with a tracer attached
// (may be nil to detach), every FinishIteration emits one
// "cluster.superstep" event carrying the full IterationStats — per-machine
// compute, comm and waiting plus the raw work counters — so a whole run
// yields a machine-level timeline. reg (may be nil) is teed beside the
// tracer (see telemetry.Instrumentable).
func (c *Cluster) SetTelemetry(tr telemetry.Tracer, reg *telemetry.Registry) {
	c.tr = telemetry.Tee(tr, reg)
}

// SetCommMatrix enables (or disables) per-superstep src→dst message matrix
// capture. When on, NewCounters allocates Counters.Pairs and the engines
// record each cross-machine message's destination alongside the existing
// per-machine totals; FinishIteration then publishes the matrix through
// telemetry ("pairs" attr). Enable before the run starts —
// counters already handed to an engine keep their allocation.
func (c *Cluster) SetCommMatrix(on bool) { c.commMatrix = on }

// CommMatrixEnabled reports whether src→dst matrix capture is on.
func (c *Cluster) CommMatrixEnabled() bool { return c.commMatrix }

// SetWorkers sizes the bounded worker pool each superstep's work runs on
// (RunTasks). w < 1 selects the default, min(GOMAXPROCS, machines). The
// pool size is an execution detail, never an output: engines must combine
// per-task results in fixed task order, so every result and every counter
// is bit-identical at any worker count. Set it before a run starts; the
// engines read it once per superstep phase.
func (c *Cluster) SetWorkers(w int) { c.workers = w }

// Workers returns the worker-pool size (>= 1).
func (c *Cluster) Workers() int {
	if c.workers < 1 {
		return min(runtime.GOMAXPROCS(0), c.numMachines)
	}
	return c.workers
}

// RunTasks executes fn(task) for every task in [0, ntasks) on the
// cluster's worker pool: pool.Run at width Workers(). With Workers() == 1
// the tasks run inline on the calling goroutine in ascending order; with
// W > 1, min(W, ntasks) goroutines drain the tasks through an atomic
// cursor, so scheduling order is arbitrary. Callers must therefore confine
// each task's writes to task-private state and combine results in fixed
// task order afterwards — that contract is what keeps parallel runs
// bit-identical to sequential ones.
func (c *Cluster) RunTasks(ntasks int, fn func(task int)) {
	pool.Run(c.Workers(), ntasks, fn)
}

// NumMachines returns the machine count.
func (c *Cluster) NumMachines() int { return c.numMachines }

// Owner returns the machine owning vertex v.
func (c *Cluster) Owner(v uint32) int { return c.owner[v] }

// Model returns the cost model.
func (c *Cluster) Model() CostModel { return c.model }

// Owned returns machine m's vertices in ascending ID order. The slice is
// the cluster's own, valid until the next Rehome: read it, never write it.
// Its capacity is its length, so appending to it copies.
func (c *Cluster) Owned(m int) []uint32 { return c.owned[m] }

// Assignment returns a copy of the current vertex→machine placement.
func (c *Cluster) Assignment() []int { return append([]int(nil), c.owner...) }

// MarkDead records a permanent machine failure. A dead machine contributes
// no compute, no comm and no waiting to subsequent iterations — it is gone,
// not idle. Marking requires the machine to own no vertices (Rehome first).
func (c *Cluster) MarkDead(m int) error {
	if m < 0 || m >= c.numMachines {
		return fmt.Errorf("cluster: mark dead machine %d of %d", m, c.numMachines)
	}
	if vs := c.owned[m]; len(vs) > 0 {
		return fmt.Errorf("cluster: machine %d still owns vertex %d; rehome before MarkDead", m, vs[0])
	}
	if c.dead == nil {
		c.dead = make([]bool, c.numMachines)
	}
	c.dead[m] = true
	return nil
}

// Dead reports whether machine m has been marked permanently failed.
func (c *Cluster) Dead(m int) bool { return c.dead != nil && c.dead[m] }

// LiveMachines counts machines not marked dead.
func (c *Cluster) LiveMachines() int {
	n := c.numMachines
	for _, d := range c.dead {
		if d {
			n--
		}
	}
	return n
}

// Rehome replaces the vertex→machine placement mid-run — degraded-mode
// recovery restreaming a dead machine's vertices onto survivors — and
// rebuilds every machine's vertex list (Owned). The new assignment must
// cover the same vertices and place none on a dead machine.
func (c *Cluster) Rehome(assignment []int) error {
	if len(assignment) != len(c.owner) {
		return fmt.Errorf("cluster: rehome %d vertices, cluster has %d", len(assignment), len(c.owner))
	}
	for v, p := range assignment {
		if p < 0 || p >= c.numMachines {
			return fmt.Errorf("cluster: rehome vertex %d to machine %d, want [0,%d)", v, p, c.numMachines)
		}
		if c.Dead(p) {
			return fmt.Errorf("cluster: rehome vertex %d to dead machine %d", v, p)
		}
	}
	copy(c.owner, assignment)
	c.own()
	return nil
}

// Counters accumulates one iteration's per-machine work. Engines fill it
// during a superstep (each machine's slot is written by one task at a
// time, so concurrent pool workers need no locking) and pass it to
// FinishIteration.
type Counters struct {
	Steps    []int64 // walk steps executed
	Edges    []int64 // edges traversed
	Vertices []int64 // vertex updates applied
	Messages []int64 // cross-machine messages sent

	// Pairs, when non-nil, is the K×K src→dst message matrix:
	// Pairs[i][j] counts the messages charged to machine i whose remote
	// peer is machine j. Row i belongs to machine i (same lock-free
	// discipline as the flat counters), the diagonal stays zero, and row
	// sums equal Messages exactly — the reconciliation invariant
	// commview.CheckMessages enforces. nil unless SetCommMatrix(true).
	Pairs [][]int64
}

// NewCounters returns zeroed counters for this cluster.
func (c *Cluster) NewCounters() *Counters {
	w := &Counters{
		Steps:    make([]int64, c.numMachines),
		Edges:    make([]int64, c.numMachines),
		Vertices: make([]int64, c.numMachines),
		Messages: make([]int64, c.numMachines),
	}
	if c.commMatrix {
		w.Pairs = newPairs(c.numMachines)
	}
	return w
}

// newPairs allocates a zeroed k×k matrix backed by one contiguous slice.
func newPairs(k int) [][]int64 {
	flat := make([]int64, k*k)
	rows := make([][]int64, k)
	for i := range rows {
		rows[i] = flat[i*k : (i+1)*k : (i+1)*k]
	}
	return rows
}

// clonePairs deep-copies a pair matrix (nil in, nil out).
func clonePairs(p [][]int64) [][]int64 {
	if p == nil {
		return nil
	}
	out := newPairs(len(p))
	for i, row := range p {
		copy(out[i], row)
	}
	return out
}

// IterationStats is the timing of one BSP iteration.
type IterationStats struct {
	// Compute[i] is machine i's computation time.
	Compute []float64
	// Comm[i] is machine i's communication time.
	Comm []float64
	// Waiting[i] is machine i's idle time at the two phase barriers.
	Waiting []float64
	// Time is the iteration's wall-clock duration:
	// max(Compute) + max(Comm) + Latency.
	Time float64
	// Work echoes the raw counters the stats were derived from.
	Work Counters
}

// newIterationStats returns zeroed per-machine timings around a deep copy
// of w, so the record stays valid when the caller reuses its counters.
func newIterationStats(k int, w *Counters) IterationStats {
	return IterationStats{
		Compute: make([]float64, k),
		Comm:    make([]float64, k),
		Waiting: make([]float64, k),
		Work: Counters{
			Steps:    append([]int64(nil), w.Steps...),
			Edges:    append([]int64(nil), w.Edges...),
			Vertices: append([]int64(nil), w.Vertices...),
			Messages: append([]int64(nil), w.Messages...),
			Pairs:    clonePairs(w.Pairs),
		},
	}
}

// FinishIteration converts raw work counters into BSP timing.
func (c *Cluster) FinishIteration(w *Counters) IterationStats {
	k := c.numMachines
	st := newIterationStats(k, w)
	m := c.model
	var d Disruption
	if c.disrupter != nil {
		d = c.disrupter.Disrupt()
	}
	var maxCompute, maxComm float64
	for i := 0; i < k; i++ {
		if c.Dead(i) {
			continue
		}
		st.Compute[i] = m.StepCost*float64(w.Steps[i]) +
			m.EdgeCost*float64(w.Edges[i]) +
			m.VertexCost*float64(w.Vertices[i])
		if m.Speeds != nil {
			st.Compute[i] /= m.Speeds[i]
		}
		if d.Slow != nil && d.Slow[i] > 0 {
			st.Compute[i] *= d.Slow[i]
		}
		st.Comm[i] = m.MessageCost * float64(w.Messages[i])
		if d.Resend != nil && d.Resend[i] > 0 {
			st.Comm[i] *= 1 + d.Resend[i]
		}
		if st.Compute[i] > maxCompute {
			maxCompute = st.Compute[i]
		}
		if st.Comm[i] > maxComm {
			maxComm = st.Comm[i]
		}
	}
	st.Time = maxCompute + maxComm + m.Latency + d.ExtraLatency
	for i := 0; i < k; i++ {
		if c.Dead(i) {
			continue
		}
		st.Waiting[i] = (maxCompute - st.Compute[i]) + (maxComm - st.Comm[i])
	}
	c.observe(&st, "")
	return st
}

// ChargePhaseWork accounts a barrier-gated recovery phase — checkpoint
// write, checkpoint restore, restream transfer — as one pseudo-iteration.
// busy[i] is machine i's busy time in simulated µs (dead machines must be
// 0); the phase lasts max(busy)+Latency, every faster live machine waits out
// the slack, and the phase is observed through telemetry with its kind
// attached so traces can separate recovery overhead from algorithm
// supersteps.
//
// work attaches explicit counters to the phase record. Fault recovery uses
// it to publish restream traffic — which survivor received how many vertex
// states from the dead machine — so the comm matrix shows recovery-induced
// shifts, not just algorithm messages. work may be nil (a phase that moves
// no messages); when non-nil it is deep-copied into the observed stats, and
// its Pairs matrix (if any) rides along into the trace like any algorithm
// superstep's.
func (c *Cluster) ChargePhaseWork(kind string, busy []float64, work *Counters) (IterationStats, error) {
	k := c.numMachines
	if len(busy) != k {
		return IterationStats{}, fmt.Errorf("cluster: phase %q busy for %d machines, want %d", kind, len(busy), k)
	}
	if work == nil {
		work = c.NewCounters()
	}
	st := newIterationStats(k, work)
	var max float64
	for i := 0; i < k; i++ {
		if c.Dead(i) {
			continue
		}
		st.Compute[i] = busy[i]
		if busy[i] > max {
			max = busy[i]
		}
	}
	st.Time = max + c.model.Latency
	for i := 0; i < k; i++ {
		if c.Dead(i) {
			continue
		}
		st.Waiting[i] = max - st.Compute[i]
	}
	c.observe(&st, kind)
	return st, nil
}

// observe publishes one finished superstep to the attached telemetry. The
// emitted record carries the IterationStats verbatim: per-machine compute,
// comm and waiting (simulated µs) plus the raw work counters. phase is ""
// for an algorithm superstep, or the recovery phase kind from ChargePhaseWork.
func (c *Cluster) observe(st *IterationStats, phase string) {
	iter := int(c.iter.Add(1)) - 1
	if c.tr != nil && c.tr.Enabled() {
		var waiting float64
		for _, x := range st.Waiting {
			waiting += x
		}
		attrs := []telemetry.Attr{
			telemetry.Int("iteration", iter),
			telemetry.Int("machines", c.numMachines),
			telemetry.Float("time_us", st.Time),
			telemetry.Float("waiting_us_total", waiting),
			telemetry.Any("compute", st.Compute),
			telemetry.Any("comm", st.Comm),
			telemetry.Any("waiting", st.Waiting),
			telemetry.Any("steps", st.Work.Steps),
			telemetry.Any("edges", st.Work.Edges),
			telemetry.Any("vertices", st.Work.Vertices),
			telemetry.Any("messages", st.Work.Messages),
		}
		if st.Work.Pairs != nil {
			attrs = append(attrs, telemetry.Any("pairs", st.Work.Pairs))
		}
		if phase != "" {
			attrs = append(attrs, telemetry.String("phase", phase))
		}
		c.tr.Event("cluster.superstep", attrs...)
	}
}

// RunStats aggregates a whole computation.
type RunStats struct {
	Iterations []IterationStats
}

// Add appends one iteration.
func (r *RunStats) Add(st IterationStats) { r.Iterations = append(r.Iterations, st) }

// TotalTime is the simulated wall-clock time of the run.
func (r *RunStats) TotalTime() float64 {
	var t float64
	for _, it := range r.Iterations {
		t += it.Time
	}
	return t
}

// TotalWaiting sums every machine's waiting time across all iterations.
func (r *RunStats) TotalWaiting() float64 {
	var w float64
	for _, it := range r.Iterations {
		for _, x := range it.Waiting {
			w += x
		}
	}
	return w
}

// WaitRatio is the paper's Fig 13 metric: total waiting time of all
// machines divided by (total running time × machine count) — the share of
// cluster capacity wasted at barriers.
func (r *RunStats) WaitRatio() float64 {
	if len(r.Iterations) == 0 {
		return 0
	}
	k := len(r.Iterations[0].Compute)
	if k == 0 {
		// A degenerate run (zero machines in the first iteration) has no
		// capacity to waste.
		return 0
	}
	total := r.TotalTime() * float64(k)
	if total == 0 {
		return 0
	}
	return r.TotalWaiting() / total
}

// TotalMessages counts every cross-machine message of the run.
func (r *RunStats) TotalMessages() int64 {
	var m int64
	for _, it := range r.Iterations {
		for _, x := range it.Work.Messages {
			m += x
		}
	}
	return m
}

// WriteTimeline writes the run as CSV rows
// (iteration, machine, compute, comm, waiting, steps, edges, messages,
// received), one per machine per iteration — the raw data behind the
// paper's Fig 12 per-machine bar charts. messages counts what the machine
// sent; received is the matching inbound count, the column sum of the
// iteration's src→dst matrix — derivable only when the run captured one
// (SetCommMatrix), and 0 otherwise.
func (r *RunStats) WriteTimeline(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "iteration,machine,compute,comm,waiting,steps,edges,messages,received"); err != nil {
		return err
	}
	for it, st := range r.Iterations {
		for m := range st.Compute {
			var recv int64
			if st.Work.Pairs != nil {
				for _, row := range st.Work.Pairs {
					recv += row[m]
				}
			}
			if _, err := fmt.Fprintf(bw, "%d,%d,%.3f,%.3f,%.3f,%d,%d,%d,%d\n",
				it, m, st.Compute[m], st.Comm[m], st.Waiting[m],
				st.Work.Steps[m], st.Work.Edges[m], st.Work.Messages[m], recv); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

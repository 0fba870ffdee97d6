package fault

import (
	"fmt"
	"math"
	"sort"

	"bpart/internal/cluster"
	"bpart/internal/graph"
	"bpart/internal/partition"
	"bpart/internal/telemetry"
)

// RecoveryStats summarizes what fault handling cost a run. All fields are
// deterministic functions of (graph, assignment, spec, engine seed).
type RecoveryStats struct {
	// Checkpoints is how many interval checkpoints were written (the free
	// initial snapshot is not counted).
	Checkpoints int `json:"checkpoints"`
	// CheckpointVertices is the total vertex states written across all
	// checkpoints — checkpoint volume tracks per-machine vertex balance.
	CheckpointVertices int64 `json:"checkpoint_vertices"`
	// Crashes is how many crash events fired.
	Crashes int `json:"crashes"`
	// SuperstepsReplayed counts supersteps re-executed after rollbacks.
	SuperstepsReplayed int `json:"supersteps_replayed"`
	// RestreamedVertices counts vertices moved off dead machines.
	RestreamedVertices int `json:"restreamed_vertices"`
	// LostBatches counts message batches that needed retransmission.
	LostBatches int `json:"lost_batches"`
	// SlowSupersteps counts supersteps that ran with a straggler active.
	SlowSupersteps int `json:"slow_supersteps"`
	// RecoverySimTimeUS is simulated time spent on fault machinery:
	// checkpoint, restore and restream barriers plus replayed supersteps.
	RecoverySimTimeUS float64 `json:"recovery_sim_time_us"`
	// AddedWaitRatio is the share of total cluster capacity spent waiting
	// inside that recovery machinery — the fault-attributable slice of the
	// paper's Fig 13 metric.
	AddedWaitRatio float64 `json:"added_wait_ratio"`
}

// Program is one bulk-synchronous computation as the run loop sees it: the
// algorithm builds its state, hands Run these three closures over it, and
// fills its result from what Run returns.
type Program struct {
	// Step executes logical superstep it (0-based; a replayed superstep is
	// called again with the same it) and returns the stats
	// cluster.FinishIteration settled for it, plus whether the computation
	// is complete after it. A nil Step is a program with nothing to do (a
	// walk with no walkers): no superstep is recorded.
	Step func(it int) (st cluster.IterationStats, done bool)
	// Checkpoint captures the algorithm's complete mutable state (ranks,
	// frontiers, walker positions, RNG streams) and returns a closure that
	// copies it back. The closure must leave the capture intact: two crashes
	// can roll back to the same checkpoint. Only called under a controller.
	Checkpoint func() (restore func())
	// Reassign is called after a restream, once state is restored, with the
	// dead machine and the new placement so the engine can rebuild
	// ownership-derived structures. Required by the Restream policy.
	Reassign func(dead int, assignment []int)
}

// Controller orchestrates one engine run under a fault spec: it supplies
// per-superstep disruptions to the cluster, checkpoints at interval
// barriers, and on a crash rolls the run back (and, under Restream,
// re-partitions the dead machine's vertices onto survivors).
//
// Run is the only superstep loop that speaks the recovery protocol; engines
// reach the controller through it alone. A Controller may drive several
// consecutive runs; machines killed under Restream stay dead across them.
type Controller struct {
	g    *graph.Graph
	cl   *cluster.Cluster
	spec *Spec

	tr telemetry.Tracer

	prog        Program
	running     bool
	step        int     // logical superstep currently executing
	lastCkpt    int     // logical step of the newest checkpoint (-1 = initial)
	restore     func()  // copies the newest checkpoint back
	consumed    []bool  // one-shot events (crash, msgloss) already fired
	replayUntil int     // logical steps below this are replays
	owned       []int64 // per-machine owned-vertex counts

	stats        RecoveryStats
	recoveryWait float64
}

// NewController validates the spec against the cluster and attaches itself
// as the cluster's disrupter. The spec is normalized in place.
func NewController(g *graph.Graph, cl *cluster.Cluster, spec *Spec) (*Controller, error) {
	if g == nil || cl == nil || spec == nil {
		return nil, fmt.Errorf("fault: NewController needs graph, cluster and spec")
	}
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	if err := spec.Validate(cl.NumMachines()); err != nil {
		return nil, err
	}
	c := &Controller{g: g, cl: cl, spec: spec, tr: telemetry.Nop()}
	cl.SetDisrupter(c)
	return c, nil
}

// SetTelemetry implements telemetry.Instrumentable: fault events (crash,
// checkpoint, restream, run) go to the tracer, and reg (may be nil) is
// teed beside it (see telemetry.Instrumentable).
func (c *Controller) SetTelemetry(tr telemetry.Tracer, reg *telemetry.Registry) {
	c.tr = telemetry.Tee(tr, reg)
}

// Cluster returns the cluster this controller disrupts.
func (c *Controller) Cluster() *cluster.Cluster { return c.cl }

// Spec returns the (normalized) schedule being injected.
func (c *Controller) Spec() *Spec { return c.spec }

// Run drives p's supersteps to completion and returns their accumulated
// stats. On a nil Controller it is the bare BSP loop and reports no
// RecoveryStats. Under a controller every settled superstep passes through
// the recovery protocol: replays are accounted, due crashes roll state back
// through the newest checkpoint's restore closure (and, under Restream,
// re-partition the dead machine's vertices), interval checkpoints are
// written, and the run's RecoveryStats are returned — non-nil even when p
// had nothing to do. A done reported by a superstep that was then rolled
// back is ignored: the work that finished the run has just been lost.
func (c *Controller) Run(p Program) (cluster.RunStats, *RecoveryStats) {
	var stats cluster.RunStats
	if c != nil {
		c.begin(p)
	}
	for it, done := 0, p.Step == nil; !done; it++ {
		var st cluster.IterationStats
		st, done = p.Step(it)
		stats.Add(st)
		if c != nil && c.endSuperstep(&stats) {
			// The loop's increment replays the first lost superstep.
			it, done = c.step-1, false
		}
	}
	if c == nil {
		return stats, nil
	}
	rec := c.finish(&stats)
	return stats, &rec
}

// begin resets per-run state and takes the free initial snapshot.
func (c *Controller) begin(p Program) {
	if p.Checkpoint == nil || (c.spec.Policy == Restream && p.Reassign == nil) {
		// Only an engine bug gets here: no schedule or input decides which
		// closures a program is built with.
		panic("fault: Run under a controller needs Program.Checkpoint, and Program.Reassign to restream")
	}
	c.prog = p
	c.running = true
	c.step = 0
	c.lastCkpt = -1
	c.replayUntil = 0
	c.consumed = make([]bool, len(c.spec.Events))
	// Crash events aimed at machines already dead from a previous run on
	// this cluster can never fire again.
	for i, ev := range c.spec.Events {
		if ev.Kind == Crash && c.cl.Dead(ev.Machine) {
			c.consumed[i] = true
		}
	}
	c.refreshOwned()
	c.stats = RecoveryStats{}
	c.recoveryWait = 0
	// The initial state is always recoverable: loading the input is a
	// startup cost every run pays, so this snapshot is not charged.
	c.restore = p.Checkpoint()
}

func (c *Controller) refreshOwned() {
	owned := make([]int64, c.cl.NumMachines())
	for _, m := range c.cl.Assignment() {
		owned[m]++
	}
	c.owned = owned
}

// Disrupt implements cluster.Disrupter for the logical superstep currently
// finishing. Slowdowns are pure functions of the logical step, so a replay
// re-experiences them (the straggler is still hot when the run retries);
// message loss is one-shot — a batch is lost once and the retransmission
// already paid for it.
func (c *Controller) Disrupt() cluster.Disruption {
	if !c.running {
		return cluster.Disruption{}
	}
	k := c.cl.NumMachines()
	var d cluster.Disruption
	slowed := false
	for i, ev := range c.spec.Events {
		switch ev.Kind {
		case Slow:
			if c.step >= ev.Step && c.step < ev.Step+ev.Duration {
				if d.Slow == nil {
					d.Slow = make([]float64, k)
					for j := range d.Slow {
						d.Slow[j] = 1
					}
				}
				d.Slow[ev.Machine] *= ev.Factor
				slowed = true
			}
		case MsgLoss:
			if ev.Step == c.step && !c.consumed[i] {
				c.consumed[i] = true
				if d.Resend == nil {
					d.Resend = make([]float64, k)
				}
				d.Resend[ev.Machine] += ev.Frac
				d.ExtraLatency += c.cl.Model().Latency
				c.stats.LostBatches++
				c.tr.Event("fault.msgloss",
					telemetry.Int("step", c.step),
					telemetry.Int("machine", ev.Machine),
					telemetry.Float("frac", ev.Frac),
				)
			}
		}
	}
	if slowed {
		c.stats.SlowSupersteps++
	}
	return d
}

// endSuperstep runs after every settled superstep. It accounts replays,
// fires a due crash (restoring state through the checkpoint's closure, in
// which case it reports true and c.step is the superstep to replay from),
// and writes interval checkpoints. stats is the run's RunStats — the
// recovery barriers this call charges are appended to it.
func (c *Controller) endSuperstep(stats *cluster.RunStats) (rolledBack bool) {
	step := c.step
	if step < c.replayUntil {
		c.stats.SuperstepsReplayed++
		if n := len(stats.Iterations); n > 0 {
			last := &stats.Iterations[n-1]
			c.stats.RecoverySimTimeUS += last.Time
			for _, w := range last.Waiting {
				c.recoveryWait += w
			}
		}
	}
	if idx := c.pendingCrash(step); idx >= 0 {
		c.consumed[idx] = true
		ev := c.spec.Events[idx]
		c.stats.Crashes++
		c.tr.Event("fault.crash",
			telemetry.Int("step", step),
			telemetry.Int("machine", ev.Machine),
			telemetry.String("policy", string(c.spec.Policy)),
			telemetry.Int("rollback_to", c.lastCkpt),
		)
		if c.spec.Policy == Restream && !c.cl.Dead(ev.Machine) && c.cl.LiveMachines() > 1 {
			c.restream(ev.Machine, stats)
		}
		c.chargePhase("restore", stats)
		c.restore()
		if c.spec.Policy == Restream {
			c.prog.Reassign(ev.Machine, c.cl.Assignment())
		}
		c.replayUntil = step + 1
		c.step = c.lastCkpt + 1
		return true
	}
	if c.spec.CheckpointEvery > 0 && step-c.lastCkpt >= c.spec.CheckpointEvery {
		c.restore = c.prog.Checkpoint()
		c.chargePhase("checkpoint", stats)
		c.lastCkpt = step
		c.stats.Checkpoints++
		var total int64
		for m, n := range c.owned {
			if !c.cl.Dead(m) {
				total += n
			}
		}
		c.stats.CheckpointVertices += total
		c.tr.Event("fault.checkpoint",
			telemetry.Int("step", step),
			telemetry.Int("vertices", int(total)),
		)
	}
	c.step = step + 1
	return false
}

// pendingCrash returns the index of an unconsumed crash event at step, or
// -1. Events are sorted, so the first match is the lowest machine.
func (c *Controller) pendingCrash(step int) int {
	for i, ev := range c.spec.Events {
		if ev.Kind == Crash && ev.Step == step && !c.consumed[i] {
			return i
		}
	}
	return -1
}

// chargePhase bills one checkpoint/restore barrier: every live machine is
// busy for CheckpointCost × its owned-vertex count.
func (c *Controller) chargePhase(kind string, stats *cluster.RunStats) {
	busy := make([]float64, c.cl.NumMachines())
	cost := c.cl.Model().CheckpointCost
	for m, n := range c.owned {
		if !c.cl.Dead(m) {
			busy[m] = cost * float64(n)
		}
	}
	c.addPhase(kind, busy, nil, stats)
}

// addPhase runs ChargePhaseWork and folds the result into both the engine's
// RunStats and the controller's recovery accounting. work (may be nil)
// attaches message counters to the phase record — restream uses it to put
// recovery traffic into the comm matrix.
func (c *Controller) addPhase(kind string, busy []float64, work *cluster.Counters, stats *cluster.RunStats) {
	st, err := c.cl.ChargePhaseWork(kind, busy, work)
	if err != nil {
		// busy is built from this cluster's machine count, so a length
		// error is unreachable; keep the stats consistent regardless.
		return
	}
	stats.Add(st)
	c.stats.RecoverySimTimeUS += st.Time
	for _, w := range st.Waiting {
		c.recoveryWait += w
	}
}

// restream permanently retires machine dead and moves its vertices onto the
// survivors by partition.Stream continued from the survivors' placement. The
// lost vertices go in out-degree order (prioritized restreaming): highest
// degree first, the vertices whose placement matters most while survivor
// loads are least constrained. The score is the Fennel objective over the
// paper's two-dimensional weight W_i = C·|V_i| + (1−C)·|E_i|/d̄, so the
// degraded cluster stays balanced in both dimensions.
func (c *Controller) restream(dead int, stats *cluster.RunStats) {
	owner := c.cl.Assignment()
	k := c.cl.NumMachines()
	// The survivors, numbered 0…L−1 in machine order, are Stream's parts;
	// dead machines are simply not parts.
	var live []int
	part := make([]int, k)
	for m := range part {
		part[m] = partition.Unassigned
		if m != dead && !c.cl.Dead(m) {
			part[m] = len(live)
			live = append(live, m)
		}
	}
	start := make([]int, len(owner))
	lost := make([]graph.VertexID, 0, c.owned[dead]) // non-nil: nil streams every vertex
	for v, m := range owner {
		start[v] = part[m]
		if m == dead {
			lost = append(lost, graph.VertexID(v))
		}
	}
	sort.SliceStable(lost, func(a, b int) bool { return c.g.OutDegree(lost[a]) > c.g.OutDegree(lost[b]) })
	// The recovery policy's own α (whole graph, every machine counted, dead
	// ones included) and no W cap: Stream's defaults would move placements.
	res, err := partition.Stream(c.g, partition.StreamOptions{
		K:        len(live),
		C:        0.5, // the paper's balance mix between vertices and edges
		Alpha:    float64(c.g.NumEdges()) * math.Sqrt(float64(k)) / math.Pow(float64(c.g.NumVertices()), 1.5),
		Slack:    math.Inf(1),
		Vertices: lost,
		Start:    start,
		In:       c.g.In(),
	})
	// Commit the new placement, retire the machine, and bill the transfer:
	// each survivor ingests its received vertex states (checkpoint read +
	// message) and rebuilds their adjacency (edge cost).
	received := make([]float64, k)
	receivedEdges := make([]float64, k)
	if err == nil {
		for _, v := range lost {
			m := live[res.Parts[v]]
			owner[v] = m
			received[m]++
			receivedEdges[m] += float64(c.g.OutDegree(v))
		}
		err = c.cl.Rehome(owner)
	}
	if err == nil {
		err = c.cl.MarkDead(dead)
	}
	if err != nil {
		// start, lost and owner come from this cluster's own assignment and
		// only ever point at live survivors, so this is unreachable; a bug
		// must not kill the run silently, though.
		c.tr.Event("fault.error", telemetry.String("err", err.Error()))
		return
	}
	model := c.cl.Model()
	busy := make([]float64, k)
	for i := 0; i < k; i++ {
		busy[i] = received[i]*(model.CheckpointCost+model.MessageCost) + receivedEdges[i]*model.EdgeCost
	}
	// With matrix capture on, publish the transfer as traffic from the dead
	// machine's row (its checkpointed states stream out) to each survivor's
	// column, one message per vertex state — so recovery-induced shifts are
	// visible in tracestat comm. Row sum equals Messages[dead], preserving
	// the reconciliation invariant. Disabled runs record nothing, keeping
	// their traces byte-identical to pre-commview behavior.
	var work *cluster.Counters
	if c.cl.CommMatrixEnabled() {
		work = c.cl.NewCounters()
		work.Messages[dead] = int64(len(lost))
		for i := 0; i < k; i++ {
			work.Pairs[dead][i] = int64(received[i])
		}
	}
	c.addPhase("restream", busy, work, stats)
	c.refreshOwned()
	c.stats.RestreamedVertices += len(lost)
	c.tr.Event("fault.restream",
		telemetry.Int("machine", dead),
		telemetry.Int("vertices", len(lost)),
		telemetry.Int("survivors", c.cl.LiveMachines()),
	)
}

// finish closes the run, derives AddedWaitRatio against the final RunStats,
// publishes the totals as one fault.run event, and returns the stats.
func (c *Controller) finish(stats *cluster.RunStats) RecoveryStats {
	c.running = false
	c.prog, c.restore = Program{}, nil // drop the finished run's state
	k := c.cl.NumMachines()
	if total := stats.TotalTime() * float64(k); total > 0 {
		c.stats.AddedWaitRatio = c.recoveryWait / total
	}
	c.tr.Event("fault.run",
		telemetry.Int("checkpoints", c.stats.Checkpoints),
		telemetry.Int("crashes", c.stats.Crashes),
		telemetry.Int("supersteps_replayed", c.stats.SuperstepsReplayed),
		telemetry.Int("restreamed_vertices", c.stats.RestreamedVertices),
		telemetry.Float("recovery_sim_time_us", c.stats.RecoverySimTimeUS),
		telemetry.Float("added_wait_ratio", c.stats.AddedWaitRatio),
	)
	return c.stats
}

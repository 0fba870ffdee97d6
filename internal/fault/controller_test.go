package fault

import (
	"reflect"
	"testing"

	"bpart/internal/cluster"
	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/telemetry"
)

// toyEngine is a minimal BSP computation driven by Run: each superstep
// increments every vertex's value by 1 on its owning machine. After S
// completed supersteps every value is exactly S — so lost work, bad
// rollbacks or double-applied replays are all visible as wrong values.
type toyEngine struct {
	g     *graph.Graph
	cl    *cluster.Cluster
	ctl   *Controller
	state []int
	stats cluster.RunStats
}

func newToy(t *testing.T, n, k int, spec *Spec) *toyEngine {
	t.Helper()
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(graph.VertexID(v), graph.VertexID((v+1)%n))
	}
	return newToyOn(t, b.Build(), k, spec)
}

// newToyOn builds the toy computation over g with a round-robin placement.
func newToyOn(t *testing.T, g *graph.Graph, k int, spec *Spec) *toyEngine {
	t.Helper()
	n := g.NumVertices()
	assign := make([]int, n)
	for v := range assign {
		assign[v] = v % k
	}
	cl, err := cluster.New(assign, k, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewController(g, cl, spec)
	if err != nil {
		t.Fatal(err)
	}
	return &toyEngine{g: g, cl: cl, ctl: ctl, state: make([]int, n)}
}

// program is the toy computation as Run sees it; done(it) decides whether
// superstep it was the last, reassign (may be nil) observes restreams.
func (e *toyEngine) program(done func(it int) bool, reassign func(dead int, assignment []int)) Program {
	if reassign == nil {
		reassign = func(int, []int) {}
	}
	return Program{
		Step: func(it int) (cluster.IterationStats, bool) {
			w := e.cl.NewCounters()
			for v := range e.state {
				m := e.cl.Owner(graph.VertexID(v))
				if e.cl.Dead(m) {
					continue
				}
				e.state[v]++
				w.Vertices[m]++
				w.Messages[m]++
			}
			return e.cl.FinishIteration(w), done(it)
		},
		Checkpoint: func() func() {
			saved := append([]int(nil), e.state...)
			return func() { copy(e.state, saved) }
		},
		Reassign: reassign,
	}
}

// run executes S supersteps under the controller and returns RecoveryStats.
func (e *toyEngine) run(t *testing.T, supersteps int) RecoveryStats {
	t.Helper()
	return e.runProgram(t, e.program(func(it int) bool { return it+1 == supersteps }, nil))
}

func (e *toyEngine) runProgram(t *testing.T, p Program) RecoveryStats {
	t.Helper()
	stats, rec := e.ctl.Run(p)
	if rec == nil {
		t.Fatal("Run under a controller returned no RecoveryStats")
	}
	e.stats = stats
	return *rec
}

func (e *toyEngine) checkState(t *testing.T, want int) {
	t.Helper()
	for v, x := range e.state {
		if x != want {
			t.Fatalf("vertex %d = %d after recovery, want %d (state %v)", v, x, want, e.state)
		}
	}
}

func TestRollbackRecoversExactState(t *testing.T) {
	spec := &Spec{CheckpointEvery: 2, Events: []Event{{Kind: Crash, Step: 5, Machine: 1}}}
	e := newToy(t, 12, 3, spec)
	rs := e.run(t, 10)
	e.checkState(t, 10)
	if rs.Crashes != 1 {
		t.Fatalf("Crashes = %d", rs.Crashes)
	}
	// Checkpoints at steps 1,3,5(replay),7,9 — the crash preempts the
	// step-5 checkpoint on the first pass, and it is written on replay.
	if rs.Checkpoints != 5 {
		t.Fatalf("Checkpoints = %d", rs.Checkpoints)
	}
	// Crash at 5, last checkpoint at 3: supersteps 4 and 5 replay.
	if rs.SuperstepsReplayed != 2 {
		t.Fatalf("SuperstepsReplayed = %d", rs.SuperstepsReplayed)
	}
	if rs.RestreamedVertices != 0 {
		t.Fatalf("rollback restreamed %d vertices", rs.RestreamedVertices)
	}
	if rs.RecoverySimTimeUS <= 0 || rs.AddedWaitRatio < 0 || rs.AddedWaitRatio >= 1 {
		t.Fatalf("implausible overhead: %+v", rs)
	}
	// Total supersteps recorded: 10 algorithm + 2 replays + 5 checkpoints
	// + 1 restore barrier.
	if got := len(e.stats.Iterations); got != 18 {
		t.Fatalf("iterations recorded = %d, want 18", got)
	}
}

// A superstep that reports done and then crashes has lost the work that
// finished the run: Run must replay it, not stop on the stale done.
func TestRunIgnoresDoneOfRolledBackSuperstep(t *testing.T) {
	spec := &Spec{CheckpointEvery: 2, Events: []Event{{Kind: Crash, Step: 3, Machine: 1}}}
	e := newToy(t, 12, 3, spec)
	rs := e.run(t, 4) // superstep 3 is both the last and the crashing one
	e.checkState(t, 4)
	if rs.Crashes != 1 {
		t.Fatalf("Crashes = %d", rs.Crashes)
	}
	// Checkpoint at step 1, crash at 3: supersteps 2 and 3 replay.
	if rs.SuperstepsReplayed != 2 {
		t.Fatalf("SuperstepsReplayed = %d, want 2", rs.SuperstepsReplayed)
	}
}

// Two crashes with no checkpoint between them roll back to the same one:
// its restore closure runs twice and must put back the exact state both
// times.
func TestRunRestoresSameCheckpointTwice(t *testing.T) {
	spec := &Spec{CheckpointEvery: 4, Events: []Event{
		{Kind: Crash, Step: 5, Machine: 0},
		{Kind: Crash, Step: 6, Machine: 1},
	}}
	e := newToy(t, 12, 3, spec)
	restores := 0
	p := e.program(func(it int) bool { return it+1 == 10 }, nil)
	checkpoint := p.Checkpoint
	p.Checkpoint = func() func() {
		restore := checkpoint()
		return func() {
			restores++
			restore()
			e.checkState(t, 4) // the step-3 checkpoint: four supersteps done
		}
	}
	rs := e.runProgram(t, p)
	e.checkState(t, 10)
	if rs.Crashes != 2 || restores != 2 {
		t.Fatalf("Crashes = %d, restores = %d, want 2 and 2", rs.Crashes, restores)
	}
	// Checkpoint at step 3: the first crash replays 4-5, the second 4-6.
	if rs.SuperstepsReplayed != 5 {
		t.Fatalf("SuperstepsReplayed = %d, want 5", rs.SuperstepsReplayed)
	}
}

// Without a controller Run is the bare loop: no checkpoint is ever taken
// and no RecoveryStats are reported.
func TestRunWithoutController(t *testing.T) {
	e := newToy(t, 8, 2, &Spec{})
	p := e.program(func(it int) bool { return it+1 == 5 }, nil)
	p.Checkpoint = func() func() {
		t.Error("Checkpoint called without a controller")
		return func() {}
	}
	stats, rec := (*Controller)(nil).Run(p)
	if rec != nil {
		t.Fatalf("RecoveryStats = %+v without a controller", rec)
	}
	e.checkState(t, 5)
	if len(stats.Iterations) != 5 {
		t.Fatalf("recorded %d supersteps, want 5", len(stats.Iterations))
	}
}

func TestRollbackToInitialStateWithoutCheckpoints(t *testing.T) {
	// CheckpointEvery < 0 disables interval checkpoints: a crash rolls all
	// the way back to the initial snapshot and replays everything.
	spec := &Spec{CheckpointEvery: -1, Events: []Event{{Kind: Crash, Step: 3, Machine: 0}}}
	e := newToy(t, 8, 2, spec)
	rs := e.run(t, 6)
	e.checkState(t, 6)
	if rs.Checkpoints != 0 {
		t.Fatalf("Checkpoints = %d with interval disabled", rs.Checkpoints)
	}
	if rs.SuperstepsReplayed != 4 { // steps 0..3 replay
		t.Fatalf("SuperstepsReplayed = %d, want 4", rs.SuperstepsReplayed)
	}
}

func TestRestreamDegradedMode(t *testing.T) {
	spec := &Spec{
		Policy:          Restream,
		CheckpointEvery: 2,
		Events:          []Event{{Kind: Crash, Step: 4, Machine: 2}},
	}
	e := newToy(t, 30, 3, spec)
	reassigned := false
	rs := e.runProgram(t, e.program(func(it int) bool { return it+1 == 8 }, func(dead int, assignment []int) {
		reassigned = true
		if dead != 2 {
			t.Errorf("Reassign dead = %d", dead)
		}
		for v, m := range assignment {
			if m == 2 {
				t.Errorf("vertex %d still on dead machine", v)
			}
		}
	}))
	e.checkState(t, 8)
	if !reassigned {
		t.Fatal("Reassign hook never called")
	}
	if !e.cl.Dead(2) || e.cl.LiveMachines() != 2 {
		t.Fatalf("machine 2 not retired: dead=%v live=%d", e.cl.Dead(2), e.cl.LiveMachines())
	}
	if rs.RestreamedVertices != 10 {
		t.Fatalf("RestreamedVertices = %d, want 10", rs.RestreamedVertices)
	}
	// Survivors must share the load roughly evenly: the Fennel objective
	// keeps both dimensions balanced, so neither survivor takes everything.
	counts := map[int]int{}
	for _, m := range e.cl.Assignment() {
		counts[m]++
	}
	if counts[0] == 10 || counts[1] == 10 {
		t.Fatalf("restream dumped all vertices on one survivor: %v", counts)
	}
	if counts[0]+counts[1] != 30 {
		t.Fatalf("vertices lost in restream: %v", counts)
	}
}

func TestRecoveryStatsDeterministic(t *testing.T) {
	spec := func() *Spec {
		s, err := RandomSpec(RandomConfig{
			Seed: 11, Machines: 4, Horizon: 12,
			CrashProb: 0.3, SlowProb: 0.4, LossProb: 0.4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := newToy(t, 40, 4, spec()).run(t, 12)
	b := newToy(t, 40, 4, spec()).run(t, 12)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different RecoveryStats:\n%+v\n%+v", a, b)
	}
}

func TestMsgLossAndSlowTiming(t *testing.T) {
	spec := &Spec{Events: []Event{
		{Kind: Slow, Step: 1, Machine: 0, Duration: 2, Factor: 3},
		{Kind: MsgLoss, Step: 2, Machine: 1, Frac: 0.5},
	}}
	e := newToy(t, 8, 2, spec)
	rs := e.run(t, 5)
	e.checkState(t, 5)
	if rs.SlowSupersteps != 2 {
		t.Fatalf("SlowSupersteps = %d, want 2", rs.SlowSupersteps)
	}
	if rs.LostBatches != 1 {
		t.Fatalf("LostBatches = %d, want 1", rs.LostBatches)
	}
	if rs.Crashes != 0 || rs.SuperstepsReplayed != 0 {
		t.Fatalf("crashless run shows recovery: %+v", rs)
	}
	// Timing, not data, absorbs the faults: the slowed supersteps must be
	// strictly longer than an undisturbed one.
	its := e.stats.Iterations
	if !(its[1].Time > its[0].Time) {
		t.Fatalf("slow superstep not slower: %v vs %v", its[1].Time, its[0].Time)
	}
}

func TestControllerTelemetry(t *testing.T) {
	spec := &Spec{CheckpointEvery: 2, Events: []Event{{Kind: Crash, Step: 3, Machine: 0}}}
	e := newToy(t, 8, 2, spec)
	mem := telemetry.NewMemory()
	reg := telemetry.NewRegistry()
	e.cl.SetTelemetry(mem, reg)
	e.ctl.SetTelemetry(mem, reg)
	rs := e.run(t, 6)
	names := map[string]int{}
	for _, r := range mem.Records() {
		names[r.Name]++
	}
	if names["fault.crash"] != 1 || names["fault.run"] != 1 {
		t.Fatalf("fault events missing: %v", names)
	}
	if names["fault.checkpoint"] == 0 {
		t.Fatalf("no checkpoint events: %v", names)
	}
	if got := reg.Counter("fault_crashes_total").Value(); got != 1 {
		t.Fatalf("fault_crashes_total = %d", got)
	}
	if got := reg.Counter("fault_supersteps_replayed_total").Value(); got != int64(rs.SuperstepsReplayed) {
		t.Fatalf("fault_supersteps_replayed_total = %d, want %d", got, rs.SuperstepsReplayed)
	}
}

func TestControllerValidation(t *testing.T) {
	e := newToy(t, 8, 2, &Spec{})
	if _, err := NewController(nil, e.cl, &Spec{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	bad := &Spec{Events: []Event{{Kind: Crash, Step: 0, Machine: 9}}}
	if _, err := NewController(e.g, e.cl, bad); err == nil {
		t.Fatal("out-of-range machine accepted")
	}
	// A program that cannot be recovered is an engine bug, not an input:
	// Run refuses it before any superstep runs.
	mustPanic := func(what string, c *Controller, p Program) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s accepted", what)
			}
		}()
		c.Run(p)
	}
	step := func(int) (cluster.IterationStats, bool) {
		t.Error("superstep ran")
		return cluster.IterationStats{}, true
	}
	mustPanic("Run without a Checkpoint", e.ctl, Program{Step: step})
	restream := &Spec{Policy: Restream, Events: []Event{{Kind: Crash, Step: 0, Machine: 0}}}
	mustPanic("restream without a Reassign hook", newToy(t, 8, 2, restream).ctl,
		Program{Step: step, Checkpoint: func() func() { return func() {} }})
}

// TestRestreamOnRealGraph sanity-checks degraded-mode balance on a skewed
// generated graph rather than a ring.
func TestRestreamOnRealGraph(t *testing.T) {
	g, err := gen.ChungLu(gen.Config{NumVertices: 400, AvgDegree: 8, Skew: 0.8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	spec := &Spec{Policy: Restream, CheckpointEvery: 2, Events: []Event{{Kind: Crash, Step: 2, Machine: 3}}}
	e := newToyOn(t, g, 4, spec)
	e.run(t, 6)
	e.checkState(t, 6)
	cl := e.cl
	// Post-restream vertex imbalance among survivors stays modest: no
	// survivor carries more than 1.5× the mean.
	counts := make([]int, 4)
	for _, m := range cl.Assignment() {
		counts[m]++
	}
	if counts[3] != 0 {
		t.Fatalf("dead machine still owns %d vertices", counts[3])
	}
	mean := float64(n) / 3
	for m := 0; m < 3; m++ {
		if float64(counts[m]) > 1.5*mean {
			t.Fatalf("survivor %d overloaded: %v (mean %.1f)", m, counts, mean)
		}
	}
}

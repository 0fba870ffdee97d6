package fault

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
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
	return newToyOn(t, ring(n), k, spec)
}

// ring is the directed cycle 0 → 1 → … → n−1 → 0.
func ring(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.AddEdge(graph.VertexID(v), graph.VertexID((v+1)%n))
	}
	return b.Build()
}

// roundRobin and contiguous place vertex v of n on one of k machines.
func roundRobin(v, n, k int) int { return v % k }
func contiguous(v, n, k int) int { return v * k / n }

// newToyOn builds the toy computation over g with a round-robin placement.
func newToyOn(t *testing.T, g *graph.Graph, k int, spec *Spec) *toyEngine {
	t.Helper()
	return newToyPlaced(t, g, k, roundRobin, spec)
}

// newToyPlaced builds the toy computation over g, vertex v starting on
// machine place(v, |V|, k).
func newToyPlaced(t *testing.T, g *graph.Graph, k int, place func(v, n, k int) int, spec *Spec) *toyEngine {
	t.Helper()
	n := g.NumVertices()
	assign := make([]int, n)
	for v := range assign {
		assign[v] = place(v, n, k)
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
func (e *toyEngine) program(done func(it int) bool, reassign func()) Program {
	if reassign == nil {
		reassign = func() {}
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
	rs := e.runProgram(t, e.program(func(it int) bool { return it+1 == 8 }, func() {
		reassigned = true
		if !e.cl.Dead(2) {
			t.Error("Reassign called before machine 2 was retired")
		}
		if vs := e.cl.Owned(2); len(vs) > 0 {
			t.Errorf("vertices %v still on dead machine", vs)
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
	if got := reg.Counter("fault_crash_total").Value(); got != 1 {
		t.Fatalf("fault_crash_total = %d", got)
	}
	if got := reg.Counter("fault_checkpoint_total").Value(); got != int64(names["fault.checkpoint"]) {
		t.Fatalf("fault_checkpoint_total = %d, trace has %d", got, names["fault.checkpoint"])
	}
	if got := mem.Find("fault.run")[0].Attr("supersteps_replayed"); got != int64(rs.SuperstepsReplayed) {
		t.Fatalf("fault.run supersteps_replayed = %v, want %d", got, rs.SuperstepsReplayed)
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

// pinnedRestreams holds, per cell of TestRestreamPinned, the SHA-256 of the
// final assignment and the exact RecoveryStats, recorded on the restream that
// scored its candidates itself, before it became a call to partition.Stream.
// One cell has been re-recorded since, and says why.
var pinnedRestreams = map[string]struct{ assignment, stats string }{
	"ring30/k=3/roundrobin": {
		"3090328af20a1aaac71ddb1266e067c9fe72c70f6d13d637253f90e5d8cbfbff",
		"{Checkpoints:3 CheckpointVertices:90 Crashes:1 SuperstepsReplayed:1 RestreamedVertices:10 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:302.46000000000004 AddedWaitRatio:0}",
	},
	"ring30/k=3/contiguous": {
		"894f9bc1b715ec632dc63fb03a47dcbf2e1823f86b0ca5c52fcbfd55c69b27c5",
		"{Checkpoints:3 CheckpointVertices:90 Crashes:1 SuperstepsReplayed:1 RestreamedVertices:10 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:303.228 AddedWaitRatio:0.0008426901566547832}",
	},
	"ring30/k=4/roundrobin": {
		"ebccc111b6d863cc179034d8fbad36bf515a1ecf58ff9a31222087f5500667d5",
		"{Checkpoints:3 CheckpointVertices:90 Crashes:1 SuperstepsReplayed:1 RestreamedVertices:7 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:301.843 AddedWaitRatio:0.00031420902838299764}",
	},
	"ring30/k=4/contiguous": {
		"9ca4cffd92d4aa9c573011648bd4613235bc3558d803a4bfa852d22379e5d0df",
		"{Checkpoints:3 CheckpointVertices:90 Crashes:1 SuperstepsReplayed:1 RestreamedVertices:7 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:302.352 AddedWaitRatio:0.0009440239609544756}",
	},
	"ring30/k=8/roundrobin": {
		"df0deebd2bbc83d66e8c82ea227a0490975b5250c4e097a1d11d0a09d539059b",
		"{Checkpoints:3 CheckpointVertices:90 Crashes:2 SuperstepsReplayed:4 RestreamedVertices:8 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:552.218 AddedWaitRatio:0.0005938033632460313}",
	},
	"ring30/k=8/contiguous": {
		"ba0b1d4cee5e5a69c475fde9b734d18fda300c51a33844b2319fda2ae3a99135",
		"{Checkpoints:3 CheckpointVertices:90 Crashes:2 SuperstepsReplayed:4 RestreamedVertices:8 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:552.527 AddedWaitRatio:0.0008746211487110567}",
	},
	"ring30/k=16/roundrobin": {
		"bbaf469c8f02b4984c014a6213f37700966afe35e3d06184ed565ffac71d87eb",
		"{Checkpoints:3 CheckpointVertices:90 Crashes:3 SuperstepsReplayed:4 RestreamedVertices:6 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:651.5180000000001 AddedWaitRatio:0.0006824376252010568}",
	},
	"ring30/k=16/contiguous": {
		"487e539c50887c050ae02ea898e655272af305d5ac27d0237d7ecb331eca4b14",
		"{Checkpoints:3 CheckpointVertices:90 Crashes:3 SuperstepsReplayed:4 RestreamedVertices:4 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:651.4510000000001 AddedWaitRatio:0.000629724244304657}",
	},
	"cl400/k=3/roundrobin": {
		"1a5e1814502c9038e8eebb96dae549c8cd3c8b270af5d0abfe376d0a04d1d312",
		"{Checkpoints:3 CheckpointVertices:1200 Crashes:1 SuperstepsReplayed:1 RestreamedVertices:133 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:334.64399999999995 AddedWaitRatio:0.001165327779430725}",
	},
	"cl400/k=3/contiguous": {
		"18ca37ca90aaf6cc71f5e85650b52519b94ffcbac9fabfa1c4362666171705a1",
		"{Checkpoints:3 CheckpointVertices:1200 Crashes:1 SuperstepsReplayed:1 RestreamedVertices:133 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:340.906 AddedWaitRatio:0.007140368709287792}",
	},
	"cl400/k=4/roundrobin": {
		"e897742579e709ba500dc3989c0ff33a2fd476d7dd5720b170dc1c6970bdddbd",
		"{Checkpoints:3 CheckpointVertices:1200 Crashes:1 SuperstepsReplayed:1 RestreamedVertices:100 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:323.2819999999999 AddedWaitRatio:0.0017613643256620855}",
	},
	"cl400/k=4/contiguous": {
		"8f3043b265fcd87cd40a3ae1bc1f9b52b66c4bdf0a82fecb33aa46a1f4c44ad3",
		"{Checkpoints:3 CheckpointVertices:1200 Crashes:1 SuperstepsReplayed:1 RestreamedVertices:100 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:330.15 AddedWaitRatio:0.009401995829609771}",
	},
	"cl400/k=8/roundrobin": {
		"b3b2189d90235745152df8aaf551801099e912f43245e99448fac6fed0a8d45d",
		"{Checkpoints:3 CheckpointVertices:1200 Crashes:2 SuperstepsReplayed:4 RestreamedVertices:107 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:572.5169999999999 AddedWaitRatio:0.0009312694242612459}",
	},
	"cl400/k=8/contiguous": {
		"512ce77140bb453a0108b6d40897e92649168c4ecc56c0d98906367cba9f9cd6",
		"{Checkpoints:3 CheckpointVertices:1200 Crashes:2 SuperstepsReplayed:4 RestreamedVertices:107 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:575.258 AddedWaitRatio:0.003415997844263708}",
	},
	"cl400/k=16/roundrobin": {
		"f5d234109b42be0d342350dc642596c8377bbf4f3ad53c8b2fcfae6baef0270a",
		"{Checkpoints:3 CheckpointVertices:1200 Crashes:3 SuperstepsReplayed:4 RestreamedVertices:79 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:662.751 AddedWaitRatio:0.002156201166399706}",
	},
	"cl400/k=16/contiguous": {
		"827c97e80d6723aa56f9a9dae0465c3efba49520a879a6a885c97352b2ad6b20",
		"{Checkpoints:3 CheckpointVertices:1200 Crashes:3 SuperstepsReplayed:4 RestreamedVertices:77 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:662.6820000000001 AddedWaitRatio:0.0020476557499521496}",
	},
	"cl3000/k=3/roundrobin": {
		"ad5a3043d21ed50d70243091cb6e0f2254573d30998f0637dfb0013b6de40002",
		"{Checkpoints:3 CheckpointVertices:9000 Crashes:1 SuperstepsReplayed:1 RestreamedVertices:1000 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:558.212 AddedWaitRatio:0.0006663089241623717}",
	},
	"cl3000/k=3/contiguous": {
		"de9f8faf19e23e930b106b2d257eef7b8d1ced84e3b58a09b2fda1695f5d8e5e",
		"{Checkpoints:3 CheckpointVertices:9000 Crashes:1 SuperstepsReplayed:1 RestreamedVertices:1000 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:576.49 AddedWaitRatio:0.013595762931950356}",
	},
	"cl3000/k=4/roundrobin": {
		"f4a1c9a695b7a794dc764291c906a78405d991100e29685adfcf121902985e2d",
		"{Checkpoints:3 CheckpointVertices:9000 Crashes:1 SuperstepsReplayed:1 RestreamedVertices:750 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:466.533 AddedWaitRatio:0.0003989285502698548}",
	},
	"cl3000/k=4/contiguous": {
		"14fa79c5cfea97a1f58df3741d5c6f169ac22cdd1affffafea3d281c35f6d88d",
		"{Checkpoints:3 CheckpointVertices:9000 Crashes:1 SuperstepsReplayed:1 RestreamedVertices:750 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:488.35400000000004 AddedWaitRatio:0.017971238541027976}",
	},
	"cl3000/k=8/roundrobin": {
		"0de1892c65f74616895caa3de979e6c4d57538ea88bea9a35a295eb8d4c0b321",
		"{Checkpoints:3 CheckpointVertices:9000 Crashes:2 SuperstepsReplayed:4 RestreamedVertices:807 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:716.9999999999999 AddedWaitRatio:0.002723789620341347}",
	},
	"cl3000/k=8/contiguous": {
		"fee0348e1dacc9d0e064f52305eb1e64cba25ab4e9c2bb81d32cc67df6b62ba5",
		"{Checkpoints:3 CheckpointVertices:9000 Crashes:2 SuperstepsReplayed:4 RestreamedVertices:751 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:855.884 AddedWaitRatio:0.08773944262168064}",
	},
	// Re-recorded once: Stream adds C + (1−C)·d/d̄ to W_i per placement where
	// the private scorer recomputed C·|V_i| + (1−C)·|E_i|/d̄, and the last-bit
	// difference resolves one near-tie the other way. The stats did not move.
	"cl3000/k=16/roundrobin": {
		"1a3251e0171c0fab905056e89240b9a8239728c60dc0881cd470705f65ea4f0a",
		"{Checkpoints:3 CheckpointVertices:9000 Crashes:3 SuperstepsReplayed:4 RestreamedVertices:601 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:731.4749999999999 AddedWaitRatio:0.002516162193032553}",
	},
	"cl3000/k=16/contiguous": {
		"678b841f2f408a671062382f5328a022aeefbfa6bacfe0cd955dcc6fb8137990",
		"{Checkpoints:3 CheckpointVertices:9000 Crashes:3 SuperstepsReplayed:4 RestreamedVertices:653 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:754.5849999999999 AddedWaitRatio:0.02048712733215792}",
	},
	"cl20000/k=3/roundrobin": {
		"02a30321478a3aa3d9b5f15af60eb81fc9579583abe3e919a2718c872d3e5e55",
		"{Checkpoints:3 CheckpointVertices:60000 Crashes:1 SuperstepsReplayed:1 RestreamedVertices:6666 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:2084.802 AddedWaitRatio:0.006115600677976871}",
	},
	"cl20000/k=3/contiguous": {
		"246ddbc19754a0837a8abc869e7ac49b003e9ff5622b587c548a43e6e0550e7d",
		"{Checkpoints:3 CheckpointVertices:60000 Crashes:1 SuperstepsReplayed:1 RestreamedVertices:6666 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:2443.25 AddedWaitRatio:0.05627162171019311}",
	},
	"cl20000/k=4/roundrobin": {
		"33898186c67f70d26b01d8999202cf5978bf74c082ddf472055195ca83f84a39",
		"{Checkpoints:3 CheckpointVertices:60000 Crashes:1 SuperstepsReplayed:1 RestreamedVertices:5000 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:1438.8930000000003 AddedWaitRatio:0.004084075301197071}",
	},
	"cl20000/k=4/contiguous": {
		"155cb54eeb9fd76e60fff9feb575a87eba41775ef439393a4c95fedb37c3e97c",
		"{Checkpoints:3 CheckpointVertices:60000 Crashes:1 SuperstepsReplayed:1 RestreamedVertices:5000 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:1602.2679999999998 AddedWaitRatio:0.04289858005152201}",
	},
	"cl20000/k=8/roundrobin": {
		"090aceeffd439646cb865776ca22be5f77ab299ea081cd94347e8fa9e210db71",
		"{Checkpoints:3 CheckpointVertices:60000 Crashes:2 SuperstepsReplayed:4 RestreamedVertices:5378 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:1685.417 AddedWaitRatio:0.011391805489817478}",
	},
	"cl20000/k=8/contiguous": {
		"19d32541a5bd6c25c2237ebb393df479b8d249e7174a6d9fd02ac6d3295767c5",
		"{Checkpoints:3 CheckpointVertices:60000 Crashes:2 SuperstepsReplayed:4 RestreamedVertices:5568 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:2432.732 AddedWaitRatio:0.16580881281371723}",
	},
	"cl20000/k=16/roundrobin": {
		"33a99ccbcf3d2f56661d4ee3079ec70ece4206a7da663277fbfc63e6f9a52505",
		"{Checkpoints:3 CheckpointVertices:60000 Crashes:3 SuperstepsReplayed:4 RestreamedVertices:4040 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:1191.0890000000002 AddedWaitRatio:0.007436705708544285}",
	},
	"cl20000/k=16/contiguous": {
		"cef95fe7b55a71674823c3e173d59832386bf0db505e9062f95d9d7f316bcbc3",
		"{Checkpoints:3 CheckpointVertices:60000 Crashes:3 SuperstepsReplayed:4 RestreamedVertices:4244 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:1256.058 AddedWaitRatio:0.037085804121993776}",
	},
	"ring5/k=8/contiguous/empty-machine": {
		"02010ab4c9de050cd09fca3f9866838c374f7b8a8d89fb1955b766c972c308f4",
		"{Checkpoints:3 CheckpointVertices:15 Crashes:1 SuperstepsReplayed:1 RestreamedVertices:0 LostBatches:0 SlowSupersteps:0 RecoverySimTimeUS:300.15000000000003 AddedWaitRatio:6.76575901407278e-05}",
	},
}

// TestRestreamPinned pins what a restream decides and what recovery costs
// over a grid of graphs, crash schedules and starting placements, so a
// change to the scorer it uses cannot move a placement unnoticed.
func TestRestreamPinned(t *testing.T) {
	chungLu := func(n int, deg, skew float64, seed uint64) *graph.Graph {
		g, err := gen.ChungLu(gen.Config{
			NumVertices: n, AvgDegree: deg, Skew: skew, Locality: 0.4, Window: 128, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	crashes := func(stepMachine ...int) []Event {
		var evs []Event
		for i := 0; i < len(stepMachine); i += 2 {
			evs = append(evs, Event{Kind: Crash, Step: stepMachine[i], Machine: stepMachine[i+1]})
		}
		return evs
	}
	type cell struct {
		name   string
		g      *graph.Graph
		k      int
		place  func(v, n, k int) int
		events []Event
	}
	var cells []cell
	for _, gr := range []struct {
		name string
		g    *graph.Graph
	}{
		{"ring30", ring(30)},
		{"cl400", chungLu(400, 8, 0.8, 3)},
		{"cl3000", chungLu(3000, 12, 0.78, 11)},
		{"cl20000", chungLu(20000, 16, 0.8, 7)},
	} {
		for _, sched := range []struct {
			k      int
			events []Event
		}{
			{3, crashes(2, 2)},
			{4, crashes(2, 3)},
			{8, crashes(1, 0, 3, 5)},
			{16, crashes(1, 7, 2, 8, 4, 15)},
		} {
			cells = append(cells,
				cell{fmt.Sprintf("%s/k=%d/roundrobin", gr.name, sched.k), gr.g, sched.k, roundRobin, sched.events},
				cell{fmt.Sprintf("%s/k=%d/contiguous", gr.name, sched.k), gr.g, sched.k, contiguous, sched.events})
		}
	}
	// Contiguous over 5 vertices on 8 machines leaves machines 2, 5 and 7
	// empty: crashing one restreams nothing.
	cells = append(cells, cell{"ring5/k=8/contiguous/empty-machine", ring(5), 8, contiguous, crashes(2, 2)})

	for _, c := range cells {
		spec := &Spec{Policy: Restream, CheckpointEvery: 2, Events: c.events}
		e := newToyPlaced(t, c.g, c.k, c.place, spec)
		rs := e.run(t, 6)
		e.checkState(t, 6)
		h := sha256.New()
		var buf [4]byte
		for _, m := range e.cl.Assignment() {
			binary.LittleEndian.PutUint32(buf[:], uint32(m))
			h.Write(buf[:])
		}
		got := hex.EncodeToString(h.Sum(nil))
		stats := fmt.Sprintf("%+v", rs)
		want := pinnedRestreams[c.name]
		if got != want.assignment {
			t.Errorf("%s: assignment hash %s, pinned %s", c.name, got, want.assignment)
		}
		if stats != want.stats {
			t.Errorf("%s: RecoveryStats %s, pinned %s", c.name, stats, want.stats)
		}
	}
}

package engine

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"bpart/internal/cluster"
	"bpart/internal/fault"
	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/oracle"
)

// faultEngine builds an engine over g with a chunk assignment and attaches
// a controller for spec.
func faultEngine(t testing.TB, g *graph.Graph, k int, spec *fault.Spec) *Engine {
	t.Helper()
	e := newEngine(t, g, k)
	ctl, err := fault.NewController(e.Graph(), e.Cluster(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetFaults(ctl); err != nil {
		t.Fatal(err)
	}
	return e
}

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.ChungLu(gen.Config{NumVertices: 600, AvgDegree: 8, Skew: 0.7, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestPageRankRollbackIdenticalRanks is the tentpole acceptance criterion:
// a PageRank run that crashes at superstep 5 and rolls back to its last
// checkpoint must converge to ranks bit-identical to the fault-free run —
// recovery replays the exact same float operations in the exact same order.
func TestPageRankRollbackIdenticalRanks(t *testing.T) {
	g := testGraph(t)
	base, err := newEngine(t, g, 4).PageRank(10, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := fault.ReadSpecFile("../fault/testdata/crash5.json")
	if err != nil {
		t.Fatal(err)
	}
	e := faultEngine(t, g, 4, spec)
	got, err := e.PageRank(10, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if got.Recovery == nil || got.Recovery.Crashes != 1 {
		t.Fatalf("Recovery = %+v, want 1 crash", got.Recovery)
	}
	for v := range base.Ranks {
		if base.Ranks[v] != got.Ranks[v] {
			t.Fatalf("rank[%d] differs after recovery: %v vs %v", v, base.Ranks[v], got.Ranks[v])
		}
	}
	// The recovered run recorded extra supersteps (replays + barriers).
	if len(got.Stats.Iterations) <= len(base.Stats.Iterations) {
		t.Fatalf("recovered run recorded %d supersteps, baseline %d",
			len(got.Stats.Iterations), len(base.Stats.Iterations))
	}
	if got.Recovery.RecoverySimTimeUS <= 0 {
		t.Fatalf("RecoverySimTimeUS = %v", got.Recovery.RecoverySimTimeUS)
	}
}

func TestPageRankPullRollbackIdentical(t *testing.T) {
	g := testGraph(t)
	base, err := newEngine(t, g, 4).PageRankPull(8, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	spec := &fault.Spec{CheckpointEvery: 2, Events: []fault.Event{{Kind: fault.Crash, Step: 5, Machine: 0}}}
	got, err := faultEngine(t, g, 4, spec).PageRankPull(8, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	for v := range base.Ranks {
		if base.Ranks[v] != got.Ranks[v] {
			t.Fatalf("pull rank[%d] differs: %v vs %v", v, base.Ranks[v], got.Ranks[v])
		}
	}
	// Pull-mode replay must also re-count mirror messages identically:
	// compare per-iteration message totals for the replayed window against
	// the baseline's same logical supersteps.
	baseMsgs := make([]int64, 0, len(base.Stats.Iterations))
	for _, it := range base.Stats.Iterations {
		var m int64
		for _, x := range it.Work.Messages {
			m += x
		}
		baseMsgs = append(baseMsgs, m)
	}
	// The recovered run's final *algorithm* superstep corresponds to the
	// baseline's final iteration (recovery barriers carry zero work, so
	// skip them); both runs end at logical superstep 7.
	lastBase := baseMsgs[len(baseMsgs)-1]
	var lastGot int64 = -1
	for _, it := range got.Stats.Iterations {
		var verts, msgs int64
		for i := range it.Work.Vertices {
			verts += it.Work.Vertices[i]
			msgs += it.Work.Messages[i]
		}
		if verts > 0 {
			lastGot = msgs
		}
	}
	if lastBase != lastGot {
		t.Fatalf("final superstep messages differ: %d vs %d (stale mirror stamps on replay?)", lastBase, lastGot)
	}
}

func TestPageRankRestreamDegradedRanks(t *testing.T) {
	g := testGraph(t)
	base, err := newEngine(t, g, 4).PageRank(10, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := fault.ReadSpecFile("../fault/testdata/crash5_restream.json")
	if err != nil {
		t.Fatal(err)
	}
	e := faultEngine(t, g, 4, spec)
	got, err := e.PageRank(10, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if got.Recovery == nil || got.Recovery.RestreamedVertices == 0 {
		t.Fatalf("Recovery = %+v, want restreamed vertices", got.Recovery)
	}
	if e.Cluster().LiveMachines() != 3 {
		t.Fatalf("LiveMachines = %d after restream", e.Cluster().LiveMachines())
	}
	// Each rank is summed per destination in transpose adjacency order, so
	// the placement never enters the float arithmetic; the contract pinned
	// here is still only equality up to round-off, the most a degraded run
	// promises.
	for v := range base.Ranks {
		diff := math.Abs(base.Ranks[v] - got.Ranks[v])
		if diff > 1e-9*math.Max(base.Ranks[v], 1e-300) && diff > 1e-15 {
			t.Fatalf("restream rank[%d] diverged: %v vs %v", v, base.Ranks[v], got.Ranks[v])
		}
	}
}

// tailedGraph is testGraph plus a 16-vertex path beside it: the power-law
// part converges in four or five supersteps, and the path keeps label
// propagation and 2-core peeling going well past superstep 5, so every
// algorithm is still running when either schedule below crashes it.
func tailedGraph(t testing.TB) *graph.Graph {
	t.Helper()
	g := testGraph(t)
	n := g.NumVertices()
	b := graph.NewBuilder(n + 16)
	for v := 0; v < n; v++ {
		for _, u := range g.Neighbors(graph.VertexID(v)) {
			b.AddEdge(graph.VertexID(v), u)
		}
	}
	for v := n; v+1 < n+16; v++ {
		b.AddEdge(graph.VertexID(v), graph.VertexID(v+1))
	}
	return b.Build()
}

// TestRecoverEveryAlgorithm runs all seven algorithms under a rollback and
// a restream schedule at one, two and NumCPU workers: each must execute
// under the attached controller (one crash recorded) and still produce the
// answer of internal/oracle's textbook references — labels, distances and
// core membership exactly, ranks within 1e-9 relative — and of the
// fault-free run at the same width: the same answer exactly, ranks bit for
// bit under rollback and within TestPageRankRestreamDegradedRanks'
// tolerance once restreaming has changed the placement.
func TestRecoverEveryAlgorithm(t *testing.T) {
	g := tailedGraph(t)
	type outcome struct {
		exact any       // labels, distances or core membership
		ranks []float64 // PageRank only
		rec   *fault.RecoveryStats
	}
	pr := func(r *PRResult, err error) (outcome, error) {
		if err != nil {
			return outcome{}, err
		}
		return outcome{ranks: r.Ranks, rec: r.Recovery}, nil
	}
	bfs := func(r *BFSResult, err error) (outcome, error) {
		if err != nil {
			return outcome{}, err
		}
		return outcome{exact: r.Dist, rec: r.Recovery}, nil
	}
	labels, _ := oracle.Components(g)
	hops := oracle.BFS(g, 0)
	ranks := oracle.PageRank(g, 0.85, 10)
	inCore, _ := oracle.KCore(g, 2)
	algos := []struct {
		name string
		run  func(e *Engine) (outcome, error)
		want outcome // the oracle's answer
	}{
		{"PageRank", func(e *Engine) (outcome, error) { return pr(e.PageRank(10, 0.85)) }, outcome{ranks: ranks}},
		{"PageRankPull", func(e *Engine) (outcome, error) { return pr(e.PageRankPull(10, 0.85)) }, outcome{ranks: ranks}},
		{"CC", func(e *Engine) (outcome, error) {
			r, err := e.ConnectedComponents(0)
			if err != nil {
				return outcome{}, err
			}
			return outcome{exact: r.Labels, rec: r.Recovery}, nil
		}, outcome{exact: labels}},
		{"BFS", func(e *Engine) (outcome, error) { return bfs(e.BFS(0)) }, outcome{exact: hops}},
		{"DOBFS", func(e *Engine) (outcome, error) { return bfs(e.BFSDirectionOptimizing(0)) }, outcome{exact: hops}},
		{"SSSP", func(e *Engine) (outcome, error) {
			r, err := e.SSSP(0)
			if err != nil {
				return outcome{}, err
			}
			return outcome{exact: r.Dist, rec: r.Recovery}, nil
		}, outcome{exact: oracle.SSSP(g, 0, EdgeWeight)}},
		{"KCore", func(e *Engine) (outcome, error) {
			r, err := e.KCore(2)
			if err != nil {
				return outcome{}, err
			}
			return outcome{exact: r.InCore, rec: r.Recovery}, nil
		}, outcome{exact: inCore}},
	}
	restream, err := fault.ReadSpecFile("../fault/testdata/crash5_restream.json")
	if err != nil {
		t.Fatal(err)
	}
	schedules := []struct {
		name     string
		spec     *fault.Spec
		bitExact bool // ranks: a rollback replays the same float operations
	}{
		{"rollback", &fault.Spec{CheckpointEvery: 1, Events: []fault.Event{{Kind: fault.Crash, Step: 2, Machine: 1}}}, true},
		{"restream", restream, false},
	}
	widths := []int{1, 2}
	if n := runtime.NumCPU(); !slices.Contains(widths, n) {
		widths = append(widths, n)
	}
	// ranksWithin reports the first rank of got farther than tol (relative)
	// from want, or -1.
	ranksWithin := func(got, want []float64, tol float64) int {
		for v := range want {
			diff := math.Abs(got[v] - want[v])
			if diff > tol*math.Max(want[v], 1e-300) && diff > 1e-15 {
				return v
			}
		}
		return -1
	}
	for _, algo := range algos {
		for _, w := range widths {
			plain := newEngine(t, g, 4)
			plain.Cluster().SetWorkers(w)
			base, err := algo.run(plain)
			if err != nil {
				t.Fatalf("%s w=%d: %v", algo.name, w, err)
			}
			if base.rec != nil {
				t.Fatalf("%s w=%d: fault-free run reports Recovery %+v", algo.name, w, base.rec)
			}
			for _, sched := range schedules {
				name := fmt.Sprintf("%s/%s w=%d", algo.name, sched.name, w)
				e := faultEngine(t, g, 4, sched.spec.Clone())
				e.Cluster().SetWorkers(w)
				got, err := algo.run(e)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got.rec == nil || got.rec.Crashes != 1 {
					t.Errorf("%s: Recovery = %+v, want 1 crash", name, got.rec)
					continue
				}
				if !reflect.DeepEqual(got.exact, algo.want.exact) {
					t.Errorf("%s: result differs from the oracle", name)
				}
				if !reflect.DeepEqual(base.exact, got.exact) {
					t.Errorf("%s: result differs from the fault-free run", name)
				}
				if algo.want.ranks == nil {
					continue
				}
				if v := ranksWithin(got.ranks, algo.want.ranks, 1e-9); v >= 0 {
					t.Errorf("%s: rank[%d] = %v, oracle %v", name, v, got.ranks[v], algo.want.ranks[v])
				}
				if sched.bitExact && !slices.Equal(got.ranks, base.ranks) {
					t.Errorf("%s: ranks differ from the fault-free run's bits", name)
				} else if v := ranksWithin(got.ranks, base.ranks, 1e-9); v >= 0 {
					t.Errorf("%s: rank[%d] = %v, fault-free %v", name, v, got.ranks[v], base.ranks[v])
				}
			}
		}
	}
}

// TestRecoveryStatsDeterministicAcrossRuns covers the second half of the
// acceptance criterion: the same seed and schedule yield identical
// RecoveryStats, field for field.
func TestRecoveryStatsDeterministicAcrossRuns(t *testing.T) {
	g := testGraph(t)
	mk := func() *fault.Spec {
		s, err := fault.RandomSpec(fault.RandomConfig{
			Seed: 21, Machines: 4, Horizon: 10,
			CrashProb: 0.25, SlowProb: 0.3, LossProb: 0.3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, err := faultEngine(t, g, 4, mk()).PageRank(10, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	b, err := faultEngine(t, g, 4, mk()).PageRank(10, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Recovery, b.Recovery) {
		t.Fatalf("same seed, different RecoveryStats:\n%+v\n%+v", a.Recovery, b.Recovery)
	}
	for v := range a.Ranks {
		if a.Ranks[v] != b.Ranks[v] {
			t.Fatalf("same seed, different ranks at %d", v)
		}
	}
}

func TestSetFaultsValidation(t *testing.T) {
	g := gen.Ring(8)
	e1 := newEngine(t, g, 2)
	e2 := newEngine(t, g, 2)
	ctl, err := fault.NewController(g, e2.Cluster(), &fault.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.SetFaults(ctl); err == nil {
		t.Fatal("controller for a different cluster accepted")
	}
	if err := e2.SetFaults(ctl); err != nil {
		t.Fatal(err)
	}
	if err := e2.SetFaults(nil); err != nil {
		t.Fatal(err)
	}
	// Detached: runs proceed without recovery stats.
	res, err := e2.PageRank(3, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery != nil {
		t.Fatal("detached engine still reports RecoveryStats")
	}
}

// TestRestreamInvalidatesCutDegrees pins the cut-degree cache to the
// placement: after a degraded-mode restream rehomes a dead machine's
// vertices, every later superstep must be charged from the new placement.
// The comm matrix stays off so supersteps are charged from the cache.
// PageRank and CC states are placement-independent, so the faulted run's
// post-crash supersteps must carry exactly the Work counters a fresh engine
// built on the rehomed assignment records for the same logical supersteps.
func TestRestreamInvalidatesCutDegrees(t *testing.T) {
	const crashStep = 2
	g := testGraph(t)
	// algoSupersteps drops the zero-work recovery barriers from a run.
	algoSupersteps := func(st cluster.RunStats) []cluster.Counters {
		var out []cluster.Counters
		for _, it := range st.Iterations {
			var verts int64
			for _, x := range it.Work.Vertices {
				verts += x
			}
			if verts > 0 {
				out = append(out, it.Work)
			}
		}
		return out
	}
	for _, algo := range []struct {
		name string
		run  func(e *Engine) (cluster.RunStats, error)
	}{
		{"PageRank", func(e *Engine) (cluster.RunStats, error) {
			r, err := e.PageRank(8, 0.85)
			if err != nil {
				return cluster.RunStats{}, err
			}
			return r.Stats, nil
		}},
		{"CC", func(e *Engine) (cluster.RunStats, error) {
			r, err := e.ConnectedComponents(0)
			if err != nil {
				return cluster.RunStats{}, err
			}
			return r.Stats, nil
		}},
	} {
		spec := &fault.Spec{
			Policy:          fault.Restream,
			CheckpointEvery: 1,
			Events:          []fault.Event{{Kind: fault.Crash, Step: crashStep, Machine: 1}},
		}
		e := faultEngine(t, g, 4, spec)
		stats, err := algo.run(e)
		if err != nil {
			t.Fatalf("%s: %v", algo.name, err)
		}
		if e.Cluster().LiveMachines() != 3 {
			t.Fatalf("%s: LiveMachines = %d, want 3 after the restream", algo.name, e.Cluster().LiveMachines())
		}
		fresh, err := New(g, e.Cluster().Assignment(), 4, cluster.DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		freshStats, err := algo.run(fresh)
		if err != nil {
			t.Fatalf("%s fresh: %v", algo.name, err)
		}
		// The crash fires at the barrier of superstep crashStep, so the
		// first crashStep+1 algorithm supersteps ran on the old placement;
		// the rest replay from the checkpoint and run to the same final
		// logical superstep as the fresh run.
		post := algoSupersteps(stats)[crashStep+1:]
		want := algoSupersteps(freshStats)
		if len(post) == 0 || len(post) > len(want) {
			t.Fatalf("%s: %d post-crash supersteps, fresh run has %d", algo.name, len(post), len(want))
		}
		want = want[len(want)-len(post):]
		for i := range post {
			if !reflect.DeepEqual(post[i], want[i]) {
				t.Errorf("%s post-crash superstep %d: Work %+v, fresh engine on the rehomed assignment has %+v",
					algo.name, i, post[i], want[i])
			}
		}
	}
}

// TestRollbackSpanKeepsSuperstepCount rolls the frontier algorithms back
// over spans of one to five supersteps: a crash at step s restores the
// checkpoint written every e supersteps and replays from it. The replay
// must retrace the fault-free run exactly, so the recorded supersteps are
// the fault-free count plus one per replayed superstep, checkpoint barrier
// and restore barrier. State the kernel keeps beside the algorithm's own
// (the proposal buffer) must come back with it: a replay that saw a later
// superstep's proposals would converge in fewer supersteps.
func TestRollbackSpanKeepsSuperstepCount(t *testing.T) {
	// A local graph: 7 to 14 supersteps per algorithm, and four of the
	// direction-optimizing search's levels pull.
	g, err := gen.ChungLu(gen.Config{NumVertices: 3000, AvgDegree: 6, Skew: 0.5, Locality: 0.9, Window: 16, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		exact any
		stats cluster.RunStats
		rec   *fault.RecoveryStats
	}
	bfs := func(r *BFSResult, err error) (outcome, error) {
		if err != nil {
			return outcome{}, err
		}
		return outcome{r.Dist, r.Stats, r.Recovery}, nil
	}
	algos := []struct {
		name string
		run  func(e *Engine) (outcome, error)
	}{
		{"CC", func(e *Engine) (outcome, error) {
			r, err := e.ConnectedComponents(0)
			if err != nil {
				return outcome{}, err
			}
			return outcome{r.Labels, r.Stats, r.Recovery}, nil
		}},
		{"SSSP", func(e *Engine) (outcome, error) {
			r, err := e.SSSP(0)
			if err != nil {
				return outcome{}, err
			}
			return outcome{r.Dist, r.Stats, r.Recovery}, nil
		}},
		{"BFS", func(e *Engine) (outcome, error) { return bfs(e.BFS(0)) }},
		{"DOBFS", func(e *Engine) (outcome, error) { return bfs(e.BFSDirectionOptimizing(0)) }},
	}
	for _, algo := range algos {
		base, err := algo.run(newEngine(t, g, 4))
		if err != nil {
			t.Fatalf("%s: %v", algo.name, err)
		}
		steps := len(base.stats.Iterations)
		for every := 1; every <= 5; every++ {
			for s := 0; s < steps-1; s++ {
				spec := &fault.Spec{CheckpointEvery: every, Events: []fault.Event{{Kind: fault.Crash, Step: s, Machine: 1}}}
				got, err := algo.run(faultEngine(t, g, 4, spec))
				if err != nil {
					t.Fatalf("%s every=%d step=%d: %v", algo.name, every, s, err)
				}
				rec := got.rec
				if rec == nil || rec.Crashes != 1 {
					t.Fatalf("%s every=%d step=%d: Recovery = %+v, want 1 crash", algo.name, every, s, rec)
				}
				want := steps + rec.SuperstepsReplayed + rec.Checkpoints + rec.Crashes
				if n := len(got.stats.Iterations); n != want {
					t.Errorf("%s every=%d step=%d: %d iterations, want %d (fault-free %d + %d replayed + %d checkpoints + %d restores)",
						algo.name, every, s, n, want, steps, rec.SuperstepsReplayed, rec.Checkpoints, rec.Crashes)
				}
				if !reflect.DeepEqual(got.exact, base.exact) {
					t.Errorf("%s every=%d step=%d: result differs from the fault-free run", algo.name, every, s)
				}
			}
		}
	}
}

// TestKeptKernelStateUnderRollback runs CC under a rollback schedule on an
// engine whose kernel state a BFS Run has already used and left behind:
// the proposal slots hold BFS depths until CC binds its own keys, the
// frontier buffers alternate from wherever BFS left them, and each
// restore hands the kernel a fresh frontier between them. The labels must
// be the fault-free CC's on a fresh engine, and the recorded supersteps
// the fault-free count plus the replay, checkpoint and restore barriers.
func TestKeptKernelStateUnderRollback(t *testing.T) {
	g := tailedGraph(t)
	base, err := newEngine(t, g, 4).ConnectedComponents(0)
	if err != nil {
		t.Fatal(err)
	}
	steps := len(base.Stats.Iterations)
	for s := 1; s < steps-1; s++ {
		e := newEngine(t, g, 4)
		e.Cluster().SetWorkers(2)
		if _, err := e.BFS(0); err != nil {
			t.Fatal(err)
		}
		spec := &fault.Spec{CheckpointEvery: 2, Events: []fault.Event{{Kind: fault.Crash, Step: s, Machine: 1}}}
		ctl, err := fault.NewController(g, e.Cluster(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetFaults(ctl); err != nil {
			t.Fatal(err)
		}
		got, err := e.ConnectedComponents(0)
		if err != nil {
			t.Fatalf("crash at %d: %v", s, err)
		}
		rec := got.Recovery
		if rec == nil || rec.Crashes != 1 {
			t.Fatalf("crash at %d: Recovery = %+v, want 1 crash", s, rec)
		}
		if !slices.Equal(got.Labels, base.Labels) || got.Components != base.Components {
			t.Errorf("crash at %d: CC after BFS on one engine differs from a fault-free CC on a fresh engine", s)
		}
		if n, want := len(got.Stats.Iterations), steps+rec.SuperstepsReplayed+rec.Checkpoints+rec.Crashes; n != want {
			t.Errorf("crash at %d: %d iterations, want %d", s, n, want)
		}
	}
}

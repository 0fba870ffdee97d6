package engine

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"bpart/internal/cluster"
	_ "bpart/internal/core" // registers the "BPart" scheme
	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/partition"
)

// The worker-grid property battery: every algorithm on the shared kernel,
// run under every partition scheme of the grid on several generator seeds,
// must produce byte-identical marshaled results (outputs + RunStats,
// comm matrix included) at Workers = 1, 2, 4 and NumCPU. This is the
// determinism contract the parallel supersteps are sold on — any
// scheduling-dependent float sum, counter or ordering shows up here as a
// byte diff naming the exact grid point.

// parallelWorkerGrid is the ladder every grid point is checked against the
// 1-worker reference: 2, 4 and the host's CPU count (deduplicated).
func parallelWorkerGrid() []int {
	ws := []int{2, 4}
	if n := runtime.NumCPU(); n > 1 && n != 2 && n != 4 {
		ws = append(ws, n)
	}
	return ws
}

// parallelAlgo is one algorithm of the battery; run executes it and
// returns its full marshaled result.
type parallelAlgo struct {
	name string
	run  func(e *Engine) ([]byte, error)
}

func marshalRun(v any, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

func parallelAlgos() []parallelAlgo {
	return []parallelAlgo{
		{"PageRank", func(e *Engine) ([]byte, error) { return marshalRun(e.PageRank(10, 0.85)) }},
		{"PageRankPull", func(e *Engine) ([]byte, error) { return marshalRun(e.PageRankPull(10, 0.85)) }},
		{"CC", func(e *Engine) ([]byte, error) { return marshalRun(e.ConnectedComponents(0)) }},
		{"BFS", func(e *Engine) ([]byte, error) { return marshalRun(e.BFS(0)) }},
		{"DOBFS", func(e *Engine) ([]byte, error) { return marshalRun(e.BFSDirectionOptimizing(0)) }},
		{"SSSP", func(e *Engine) ([]byte, error) { return marshalRun(e.SSSP(0)) }},
		{"KCore", func(e *Engine) ([]byte, error) { return marshalRun(e.KCore(3)) }},
	}
}

// schemeEngine builds an engine over g using the named partition scheme,
// with the comm matrix enabled so Pairs counters are part of the evidence.
func schemeEngine(t testing.TB, g *graph.Graph, scheme string, k int) *Engine {
	t.Helper()
	p, err := partition.Get(scheme)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Partition(g, k)
	if err != nil {
		t.Fatalf("%s: %v", scheme, err)
	}
	e, err := New(g, a.Parts, k, cluster.DefaultCostModel())
	if err != nil {
		t.Fatalf("%s: %v", scheme, err)
	}
	e.Cluster().SetCommMatrix(true)
	return e
}

// runStats decodes the RunStats out of a marshaled result; every result
// struct of the battery carries one under "Stats".
func runStats(t testing.TB, b []byte) cluster.RunStats {
	t.Helper()
	var r struct{ Stats cluster.RunStats }
	if err := json.Unmarshal(b, &r); err != nil {
		t.Fatal(err)
	}
	return r.Stats
}

// gridGraph is one graph of the worker grid and the schemes and
// algorithms it runs.
type gridGraph struct {
	name    string
	g       *graph.Graph
	k       int
	schemes []string
	algos   []parallelAlgo
}

// workerGridGraphs are the grid's graphs: two 400-vertex Chung-Lu graphs
// under every algorithm, and the largest reference preset, friendster-sim
// at scale 0.02 (k = 8), under the paper's four compared schemes with
// PageRank and CC.
func workerGridGraphs(t *testing.T) []gridGraph {
	t.Helper()
	var gs []gridGraph
	for _, seed := range []uint64{1, 7} {
		g, err := gen.ChungLu(gen.Config{NumVertices: 400, AvgDegree: 6, Skew: 0.6, Seed: seed})
		if err != nil {
			t.Fatalf("seed=%d: %v", seed, err)
		}
		gs = append(gs, gridGraph{fmt.Sprintf("seed=%d", seed), g, 4,
			[]string{"Chunk-V", "Chunk-E", "Hash", "BPart"}, parallelAlgos()})
	}
	g, err := gen.Preset(gen.FriendsterSim, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	prCC := slices.DeleteFunc(parallelAlgos(), func(a parallelAlgo) bool { return a.name != "PageRank" && a.name != "CC" })
	return append(gs, gridGraph{string(gen.FriendsterSim), g, 8,
		[]string{"Chunk-V", "Chunk-E", "Fennel", "BPart"}, prCC})
}

// The grid runs in both accounting modes: with matrix capture off a push
// superstep charges each frontier vertex its cached cut degree, with capture
// on it scans the arcs for their destinations. Each mode must be
// byte-identical across worker counts, and the two modes must agree on every
// per-superstep per-machine counter, with the captured rows summing to the
// message totals.
func TestParallelWorkerGridByteIdentical(t *testing.T) {
	for _, gg := range workerGridGraphs(t) {
		for _, scheme := range gg.schemes {
			e := schemeEngine(t, gg.g, scheme, gg.k)
			for _, algo := range gg.algos {
				var byMode [2]cluster.RunStats // matrix off, on
				for mode, matrix := range []bool{false, true} {
					e.Cluster().SetCommMatrix(matrix)
					e.Cluster().SetWorkers(1)
					ref, err := algo.run(e)
					if err != nil {
						t.Fatalf("%s/%s %s matrix=%v workers=1: %v", algo.name, scheme, gg.name, matrix, err)
					}
					byMode[mode] = runStats(t, ref)
					for _, wk := range parallelWorkerGrid() {
						e.Cluster().SetWorkers(wk)
						got, err := algo.run(e)
						if err != nil {
							t.Fatalf("%s/%s %s matrix=%v workers=%d: %v", algo.name, scheme, gg.name, matrix, wk, err)
						}
						if !bytes.Equal(got, ref) {
							t.Errorf("%s/%s %s matrix=%v workers=%d: marshaled result differs from the 1-worker run (%d vs %d bytes)",
								algo.name, scheme, gg.name, matrix, wk, len(got), len(ref))
						}
					}
				}
				checkAccountingModesAgree(t, fmt.Sprintf("%s/%s %s", algo.name, scheme, gg.name), byMode[0], byMode[1])
			}
		}
	}
}

// checkAccountingModesAgree compares a run charged from the cut-degree
// cache (matrix off) with the same run charged per arc (matrix on): every
// superstep's per-machine counters must be equal, and each captured matrix
// row must sum to its machine's message total.
func checkAccountingModesAgree(t *testing.T, label string, offRun, onRun cluster.RunStats) {
	t.Helper()
	off, on := offRun.Iterations, onRun.Iterations
	if len(off) != len(on) {
		t.Fatalf("%s: %d supersteps with matrix off, %d with it on", label, len(off), len(on))
	}
	for i := range off {
		a, b := off[i].Work, on[i].Work
		if a.Pairs != nil || b.Pairs == nil {
			t.Fatalf("%s superstep %d: Pairs captured off=%v on=%v", label, i, a.Pairs != nil, b.Pairs != nil)
		}
		if !reflect.DeepEqual(a.Edges, b.Edges) || !reflect.DeepEqual(a.Messages, b.Messages) || !reflect.DeepEqual(a.Vertices, b.Vertices) {
			t.Errorf("%s superstep %d: counters differ between accounting modes:\n off %v %v %v\n on  %v %v %v",
				label, i, a.Edges, a.Messages, a.Vertices, b.Edges, b.Messages, b.Vertices)
		}
		for m, row := range b.Pairs {
			var sum int64
			for _, x := range row {
				sum += x
			}
			if sum != b.Messages[m] {
				t.Errorf("%s superstep %d machine %d: Pairs row sums to %d, Messages = %d", label, i, m, sum, b.Messages[m])
			}
		}
	}
}

// TestCutDegreesMatchPerArcReference checks the cut-degree cache, and the
// counters charged from it, against a per-arc count over the raw CSR and
// the assignment that shares no code with the engine.
func TestCutDegreesMatchPerArcReference(t *testing.T) {
	const k = 4
	g, err := gen.ChungLu(gen.Config{NumVertices: 400, AvgDegree: 6, Skew: 0.6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	for _, scheme := range []string{"Chunk-V", "Chunk-E", "Hash", "BPart"} {
		e := schemeEngine(t, g, scheme, k)
		e.Cluster().SetCommMatrix(false)
		parts := e.Cluster().Assignment()
		cutOut, cutIn := make([]int32, n), make([]int32, n)
		inDeg := make([]int64, n)
		for v := 0; v < n; v++ {
			for _, u := range g.Neighbors(graph.VertexID(v)) {
				inDeg[u]++
				if parts[u] != parts[v] {
					cutOut[v]++
					cutIn[u]++
				}
			}
		}
		acct := e.pushAccounting(e.Cluster().NewCounters(), g.In())
		if !reflect.DeepEqual(acct.cutOut, cutOut) {
			t.Errorf("%s: cutOut differs from the per-arc reference", scheme)
		}
		if !reflect.DeepEqual(acct.cutIn, cutIn) {
			t.Errorf("%s: cutIn differs from the per-arc reference", scheme)
		}

		// Every PageRank superstep pushes along all out-edges; CC's first
		// superstep has the full frontier and pushes along both directions.
		wantEdges, wantMsgs := make([]int64, k), make([]int64, k)
		ccEdges, ccMsgs := make([]int64, k), make([]int64, k)
		for v := 0; v < n; v++ {
			m := parts[v]
			wantEdges[m] += int64(g.OutDegree(graph.VertexID(v)))
			wantMsgs[m] += int64(cutOut[v])
			ccEdges[m] += int64(g.OutDegree(graph.VertexID(v))) + inDeg[v]
			ccMsgs[m] += int64(cutOut[v]) + int64(cutIn[v])
		}
		pr, err := e.PageRank(2, 0.85)
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range pr.Stats.Iterations {
			if !reflect.DeepEqual(it.Work.Edges, wantEdges) || !reflect.DeepEqual(it.Work.Messages, wantMsgs) {
				t.Errorf("%s PageRank superstep %d: edges %v messages %v, reference %v %v",
					scheme, i, it.Work.Edges, it.Work.Messages, wantEdges, wantMsgs)
			}
		}
		cc, err := e.ConnectedComponents(1)
		if err != nil {
			t.Fatal(err)
		}
		if w := cc.Stats.Iterations[0].Work; !reflect.DeepEqual(w.Edges, ccEdges) || !reflect.DeepEqual(w.Messages, ccMsgs) {
			t.Errorf("%s CC superstep 0: edges %v messages %v, reference %v %v",
				scheme, w.Edges, w.Messages, ccEdges, ccMsgs)
		}
	}
}

// TestParallelRunTasksCoverage checks the pool primitive directly: every
// task index runs exactly once at any worker count, including ladders
// wider than the task list.
func TestParallelRunTasksCoverage(t *testing.T) {
	cl, err := cluster.New([]int{0, 1, 2, 0, 1, 2}, 3, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	for _, wk := range []int{0, 1, 2, 4, 9, 64} {
		cl.SetWorkers(wk)
		for _, ntasks := range []int{0, 1, 5, 33} {
			hits := make([]int32, ntasks)
			cl.RunTasks(ntasks, func(i int) { hits[i]++ })
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d ntasks=%d: task %d ran %d times", wk, ntasks, i, h)
				}
			}
		}
	}
}

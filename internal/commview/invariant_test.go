package commview

import (
	"testing"

	"bpart/internal/cluster"
	_ "bpart/internal/core" // registers the BPart partitioner
	"bpart/internal/engine"
	"bpart/internal/fault"
	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/partition"
	"bpart/internal/telemetry"
	"bpart/internal/walk"
)

// The reconciliation invariant, end to end: with matrix capture on, every
// superstep's matrix row sums must equal the per-machine Work.Messages the
// engines have always counted, and the run-total matrix must equal the
// messages the trace's cluster.superstep records carry — bit-exactly, across engines,
// partitioning schemes, and fault schedules. Any drift means an engine
// updated one counter without the other.

const invK = 4

func invGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := gen.Preset(gen.LJSim, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func invAssignment(t *testing.T, g *graph.Graph, scheme string) []int {
	t.Helper()
	p, err := partition.Get(scheme)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Partition(g, invK)
	if err != nil {
		t.Fatal(err)
	}
	return a.Parts
}

// traceMessages sums the per-machine messages and the comm-matrix cells
// the trace's cluster.superstep records carry.
func traceMessages(mem *telemetry.Memory) (messages, pairs int64) {
	for _, r := range mem.Find("cluster.superstep") {
		for _, n := range r.Attr("messages").([]int64) {
			messages += n
		}
		if m, ok := r.Attr("pairs").([][]int64); ok {
			for _, row := range m {
				for _, n := range row {
					pairs += n
				}
			}
		}
	}
	return messages, pairs
}

// checkRun asserts the invariant over one finished run.
func checkRun(t *testing.T, name string, stats *cluster.RunStats, mem *telemetry.Memory) {
	t.Helper()
	steps := FromRunStats(stats)
	if len(steps) != len(stats.Iterations) {
		t.Fatalf("%s: %d of %d supersteps carry a matrix — capture must cover every observed superstep",
			name, len(steps), len(stats.Iterations))
	}
	if err := CheckMessages(steps); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var matrixTotal int64
	for _, st := range steps {
		for _, row := range st.Pairs {
			for _, n := range row {
				matrixTotal += n
			}
		}
	}
	if got, _ := traceMessages(mem); got != matrixTotal {
		t.Fatalf("%s: matrix total %d != traced superstep messages %d", name, matrixTotal, got)
	}
}

func TestInvariantIterationEngines(t *testing.T) {
	g := invGraph(t)
	for _, scheme := range []string{"Chunk-V", "Fennel", "BPart"} {
		parts := invAssignment(t, g, scheme)
		for _, alg := range []struct {
			name string
			run  func(e *engine.Engine) (*cluster.RunStats, error)
		}{
			{"pagerank", func(e *engine.Engine) (*cluster.RunStats, error) {
				r, err := e.PageRank(4, 0.85)
				if err != nil {
					return nil, err
				}
				return &r.Stats, nil
			}},
			{"pagerank-pull", func(e *engine.Engine) (*cluster.RunStats, error) {
				r, err := e.PageRankPull(4, 0.85)
				if err != nil {
					return nil, err
				}
				return &r.Stats, nil
			}},
			{"cc", func(e *engine.Engine) (*cluster.RunStats, error) {
				r, err := e.ConnectedComponents(6)
				if err != nil {
					return nil, err
				}
				return &r.Stats, nil
			}},
			{"bfs", func(e *engine.Engine) (*cluster.RunStats, error) {
				r, err := e.BFS(0)
				if err != nil {
					return nil, err
				}
				return &r.Stats, nil
			}},
			{"dobfs", func(e *engine.Engine) (*cluster.RunStats, error) {
				r, err := e.BFSDirectionOptimizing(0)
				if err != nil {
					return nil, err
				}
				return &r.Stats, nil
			}},
			{"sssp", func(e *engine.Engine) (*cluster.RunStats, error) {
				r, err := e.SSSP(0)
				if err != nil {
					return nil, err
				}
				return &r.Stats, nil
			}},
			{"kcore", func(e *engine.Engine) (*cluster.RunStats, error) {
				r, err := e.KCore(5)
				if err != nil {
					return nil, err
				}
				return &r.Stats, nil
			}},
		} {
			e, err := engine.New(g, parts, invK, cluster.DefaultCostModel())
			if err != nil {
				t.Fatal(err)
			}
			mem := telemetry.NewMemory()
			e.SetTelemetry(mem, nil)
			e.Cluster().SetCommMatrix(true)
			stats, err := alg.run(e)
			if err != nil {
				t.Fatalf("%s/%s: %v", scheme, alg.name, err)
			}
			checkRun(t, scheme+"/"+alg.name, stats, mem)
		}
	}
}

func TestInvariantWalkEngine(t *testing.T) {
	g := invGraph(t)
	parts := invAssignment(t, g, "Fennel")
	e, err := walk.New(g, parts, invK, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	mem := telemetry.NewMemory()
	e.SetTelemetry(mem, nil)
	e.Cluster().SetCommMatrix(true)
	res, err := e.Run(walk.Config{Kind: walk.Simple, WalkersPerVertex: 1, Steps: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkRun(t, "walk", &res.Stats, mem)

	// Cross-check against the walk engine's own independently counted
	// Traffic matrix: Traffic is tallied at delivery in the merge phase,
	// Pairs at send in the parallel phase — they must agree cell for cell.
	sum := Summarize(FromRunStats(&res.Stats))
	for i := range res.Traffic {
		for j, n := range res.Traffic[i] {
			if sum.Matrix[i][j] != n {
				t.Fatalf("Pairs[%d][%d] = %d, walk Traffic = %d", i, j, sum.Matrix[i][j], n)
			}
		}
	}
}

// Fault schedules: rollback replays and restream placement surgery must
// both preserve the invariant, and the restream phase's own transfer
// traffic must appear in the matrix with matching row sums.
func TestInvariantUnderFaults(t *testing.T) {
	g := invGraph(t)
	parts := invAssignment(t, g, "Chunk-V")
	for _, spec := range []*fault.Spec{
		{Policy: fault.Rollback, CheckpointEvery: 2, Events: []fault.Event{{Kind: fault.Crash, Step: 3, Machine: 1}}},
		{Policy: fault.Restream, CheckpointEvery: 2, Events: []fault.Event{{Kind: fault.Crash, Step: 2, Machine: 2}}},
	} {
		e, err := engine.New(g, parts, invK, cluster.DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		mem := telemetry.NewMemory()
		e.SetTelemetry(mem, nil)
		e.Cluster().SetCommMatrix(true)
		ctl, err := fault.NewController(g, e.Cluster(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetFaults(ctl); err != nil {
			t.Fatal(err)
		}
		r, err := e.PageRank(6, 0.85)
		if err != nil {
			t.Fatal(err)
		}
		if r.Recovery == nil || r.Recovery.Crashes == 0 {
			t.Fatalf("policy %s: schedule fired no crash", spec.Policy)
		}
		checkRun(t, "faults/"+string(spec.Policy), &r.Stats, mem)
		if spec.Policy == fault.Restream {
			// The restream phase streamed RestreamedVertices states off the
			// dead machine (2); its matrix rows must carry at least that
			// much outbound traffic, on top of its pre-crash edge messages.
			var fromDead int64
			for _, st := range FromRunStats(&r.Stats) {
				fromDead += st.Pairs[2][0] + st.Pairs[2][1] + st.Pairs[2][3]
			}
			if fromDead < int64(r.Recovery.RestreamedVertices) {
				t.Fatalf("dead machine's matrix rows carry %d messages, want >= %d restreamed vertices",
					fromDead, r.Recovery.RestreamedVertices)
			}
		}
	}
}

// Capture must change nothing but the matrix: the same run with capture
// off and on yields identical timing, flat counters and traced totals.
func TestCaptureIsObservationOnly(t *testing.T) {
	g := invGraph(t)
	parts := invAssignment(t, g, "BPart")
	run := func(capture bool) (*engine.PRResult, *telemetry.Memory) {
		e, err := engine.New(g, parts, invK, cluster.DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		mem := telemetry.NewMemory()
		e.SetTelemetry(mem, nil)
		e.Cluster().SetCommMatrix(capture)
		r, err := e.PageRank(4, 0.85)
		if err != nil {
			t.Fatal(err)
		}
		return r, mem
	}
	off, memOff := run(false)
	on, memOn := run(true)
	if off.Stats.TotalTime() != on.Stats.TotalTime() {
		t.Fatalf("capture changed sim time: %v vs %v", off.Stats.TotalTime(), on.Stats.TotalTime())
	}
	if off.Stats.TotalMessages() != on.Stats.TotalMessages() {
		t.Fatalf("capture changed message count: %d vs %d", off.Stats.TotalMessages(), on.Stats.TotalMessages())
	}
	msgsOff, pairsOff := traceMessages(memOff)
	msgsOn, pairsOn := traceMessages(memOn)
	if msgsOff != msgsOn {
		t.Fatalf("capture changed traced messages: %d vs %d", msgsOff, msgsOn)
	}
	// The pairs matrix rides on the capture side's records only.
	if pairsOff != 0 {
		t.Fatalf("disabled run traced %d matrix messages", pairsOff)
	}
	if pairsOn != on.Stats.TotalMessages() {
		t.Fatalf("traced matrix messages = %d, want %d", pairsOn, on.Stats.TotalMessages())
	}
}

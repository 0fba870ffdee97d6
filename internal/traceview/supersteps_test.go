package traceview

import (
	"bytes"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"bpart/internal/cluster"
	"bpart/internal/engine"
	"bpart/internal/gen"
	"bpart/internal/metrics"
	"bpart/internal/partition"
	"bpart/internal/telemetry"
	"bpart/internal/walk"
)

// tracedWalk runs a real simulated-cluster walk with a JSONL tracer and
// returns the parsed trace alongside the engine's own RunStats.
func tracedWalk(t *testing.T, seed uint64) (*Trace, *walk.Result) {
	t.Helper()
	g, err := gen.ChungLu(gen.Config{NumVertices: 1500, AvgDegree: 6, Skew: 0.8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	a, err := (partition.ChunkV{}).Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	e, err := walk.New(g, a.Parts, 4, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	jl := telemetry.NewJSONL(&buf)
	e.SetTelemetry(jl, nil)
	res, err := e.Run(walk.Config{Kind: walk.Simple, WalkersPerVertex: 1, Steps: 4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return tr, res
}

// The ISSUE's core invariant: the per-machine WaitRatio contributions of a
// real traced run must sum to cluster.RunStats.WaitRatio.
func TestDecomposeWaitRatioMatchesRunStats(t *testing.T) {
	tr, res := tracedWalk(t, 1)
	steps, err := Supersteps(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != len(res.Stats.Iterations) {
		t.Fatalf("decoded %d supersteps, engine ran %d", len(steps), len(res.Stats.Iterations))
	}
	runs := GroupRuns(steps)
	if len(runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(runs))
	}
	b := DecomposeWaitRatio(runs[0])
	want := res.Stats.WaitRatio()
	if !metrics.ApproxEq(b.WaitRatio, want, 1e-9) {
		t.Fatalf("decomposed WaitRatio = %v, RunStats.WaitRatio = %v", b.WaitRatio, want)
	}
	// The contributions are a partition: they must re-sum to the ratio.
	sum := 0.0
	for _, c := range b.Contribution {
		sum += c
	}
	if !metrics.ApproxEq(sum, want, 1e-9) {
		t.Fatalf("contribution sum = %v, want %v", sum, want)
	}
	if !metrics.ApproxEq(b.TotalTimeUS, res.Stats.TotalTime(), 1e-9) {
		t.Fatalf("TotalTimeUS = %v, engine TotalTime = %v", b.TotalTimeUS, res.Stats.TotalTime())
	}
}

// A decoded superstep is the IterationStats the run kept, field for field:
// the trace and the live RunStats are one shape, with no converter between
// them. The PageRank run captures the comm matrix, so Pairs round-trips too.
func TestSuperstepsRoundTripRunStats(t *testing.T) {
	walkTrace, walkRes := tracedWalk(t, 4)
	prTrace, prStats := tracedPageRank(t)
	for _, c := range []struct {
		name  string
		tr    *Trace
		stats *cluster.RunStats
	}{{"walk", walkTrace, &walkRes.Stats}, {"pagerank", prTrace, prStats}} {
		steps, err := Supersteps(c.tr)
		if err != nil {
			t.Fatal(err)
		}
		if len(steps) != len(c.stats.Iterations) {
			t.Fatalf("%s: decoded %d supersteps, run kept %d", c.name, len(steps), len(c.stats.Iterations))
		}
		for i, st := range steps {
			if st.Iteration != i || st.Phase != "" {
				t.Fatalf("%s: superstep %d decoded as iteration %d, phase %q", c.name, i, st.Iteration, st.Phase)
			}
			if !reflect.DeepEqual(st.IterationStats, c.stats.Iterations[i]) {
				t.Fatalf("%s: superstep %d = %+v, run kept %+v", c.name, i, st.IterationStats, c.stats.Iterations[i])
			}
		}
		if c.name == "pagerank" && steps[0].Work.Pairs == nil {
			t.Fatalf("%s: no comm matrix decoded", c.name)
		}
	}
}

// tracedPageRank runs ten push PageRank iterations with the comm matrix on
// and a JSONL tracer attached, and returns the parsed trace and the run's
// RunStats.
func tracedPageRank(t *testing.T) (*Trace, *cluster.RunStats) {
	t.Helper()
	g, err := gen.ChungLu(gen.Config{NumVertices: 1500, AvgDegree: 6, Skew: 0.8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	a, err := (partition.ChunkV{}).Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	e, err := engine.New(g, a.Parts, 4, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	e.Cluster().SetCommMatrix(true)
	var buf bytes.Buffer
	jl := telemetry.NewJSONL(&buf)
	e.SetTelemetry(jl, nil)
	res, err := e.PageRank(10, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return tr, &res.Stats
}

// Straggler attribution must name the machine the engine's own
// IterationStats says was slowest, with slack = lead over the runner-up.
func TestStragglersMatchIterationStats(t *testing.T) {
	tr, res := tracedWalk(t, 2)
	steps, err := Supersteps(tr)
	if err != nil {
		t.Fatal(err)
	}
	strag := Stragglers(steps)
	if len(strag) != len(res.Stats.Iterations) {
		t.Fatalf("attributed %d supersteps, want %d", len(strag), len(res.Stats.Iterations))
	}
	for i, s := range strag {
		it := res.Stats.Iterations[i]
		wantIdx, wantMax, wantSlack := argmaxSlack(it.Compute)
		if s.ComputeMachine != wantIdx || s.ComputeUS != wantMax || s.ComputeSlackUS != wantSlack {
			t.Fatalf("iter %d compute attribution = (M%d, %v, %v), want (M%d, %v, %v)",
				i, s.ComputeMachine, s.ComputeUS, s.ComputeSlackUS, wantIdx, wantMax, wantSlack)
		}
		// Cross-check against a direct scan, independent of argmaxSlack.
		for m, c := range it.Compute {
			if c > s.ComputeUS {
				t.Fatalf("iter %d: M%d compute %v exceeds attributed straggler %v", i, m, c, s.ComputeUS)
			}
		}
	}
}

// The critical path must account for the whole simulated run time, and
// every segment machine must be in range.
func TestCriticalPathAccountsForSimTime(t *testing.T) {
	tr, res := tracedWalk(t, 3)
	steps, err := Supersteps(tr)
	if err != nil {
		t.Fatal(err)
	}
	cp := ComputeCriticalPath(steps)
	if !metrics.ApproxEq(cp.TotalUS, res.Stats.TotalTime(), 1e-9) {
		t.Fatalf("critical path total %v, engine sim time %v", cp.TotalUS, res.Stats.TotalTime())
	}
	if !metrics.ApproxEq(cp.ComputeUS+cp.CommUS+cp.LatencyUS, cp.TotalUS, 1e-9) {
		t.Fatalf("segments sum %v, total %v", cp.ComputeUS+cp.CommUS+cp.LatencyUS, cp.TotalUS)
	}
	onPath := 0.0
	for _, v := range cp.OnPathUS {
		onPath += v
	}
	if !metrics.ApproxEq(onPath+cp.LatencyUS, cp.TotalUS, 1e-9) {
		t.Fatalf("machine time %v + latency %v != total %v", onPath, cp.LatencyUS, cp.TotalUS)
	}
	for _, seg := range cp.Segments {
		if seg.DurUS <= 0 {
			t.Fatalf("non-positive segment: %+v", seg)
		}
		if seg.Phase == "latency" {
			if seg.Machine != -1 {
				t.Fatalf("latency segment names a machine: %+v", seg)
			}
		} else if seg.Machine < 0 || seg.Machine >= 4 {
			t.Fatalf("segment machine out of range: %+v", seg)
		}
	}
}

// Two back-to-back engine runs into the same trace must split into two
// runs: the iteration counter rewinds when a fresh cluster starts.
func TestGroupRunsSplitsEngineRuns(t *testing.T) {
	g := gen.Ring(300)
	var buf bytes.Buffer
	jl := telemetry.NewJSONL(&buf)
	for _, seed := range []uint64{1, 2} {
		a, err := (partition.ChunkV{}).Partition(g, 3)
		if err != nil {
			t.Fatal(err)
		}
		e, err := walk.New(g, a.Parts, 3, cluster.DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		e.SetTelemetry(jl, nil)
		if _, err := e.Run(walk.Config{Kind: walk.Simple, WalkersPerVertex: 1, Steps: 3, Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	steps, err := Supersteps(tr)
	if err != nil {
		t.Fatal(err)
	}
	runs := GroupRuns(steps)
	if len(runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(runs))
	}
	for i, run := range runs {
		if len(run) == 0 {
			t.Fatalf("run %d empty", i)
		}
		for j := 1; j < len(run); j++ {
			if run[j].Iteration <= run[j-1].Iteration {
				t.Fatalf("run %d not monotonic at %d", i, j)
			}
		}
	}
}

func TestArgmaxSlack(t *testing.T) {
	cases := []struct {
		xs    []float64
		idx   int
		max   float64
		slack float64
	}{
		{nil, -1, 0, 0},
		{[]float64{5}, 0, 5, 0},
		{[]float64{1, 4, 2}, 1, 4, 2},
		{[]float64{9, 1, 9}, 0, 9, 0}, // tie → lowest index, zero slack
		{[]float64{2, 3, 10, 7}, 2, 10, 3},
		{[]float64{10, 2, 3}, 0, 10, 7}, // max first
	}
	for _, c := range cases {
		idx, max, slack := argmaxSlack(c.xs)
		if idx != c.idx || max != c.max || slack != c.slack {
			t.Errorf("argmaxSlack(%v) = (%d, %v, %v), want (%d, %v, %v)",
				c.xs, idx, max, slack, c.idx, c.max, c.slack)
		}
	}
}

func TestDecomposeWaitRatioDegenerate(t *testing.T) {
	if b := DecomposeWaitRatio(nil); b.WaitRatio != 0 || b.Machines != 0 {
		t.Fatalf("empty run breakdown = %+v", b)
	}
	run := []Superstep{{IterationStats: cluster.IterationStats{Compute: []float64{0, 0}, Waiting: []float64{0, 0}}}}
	if b := DecomposeWaitRatio(run); b.WaitRatio != 0 {
		t.Fatalf("zero-time run WaitRatio = %v", b.WaitRatio)
	}
}

// superstepLine is one two-machine cluster.superstep event with the given
// extra attrs (leading comma included).
func superstepLine(iter int, extra string) string {
	return `{"ts":"2026-08-07T12:00:00Z","type":"event","name":"cluster.superstep","attrs":{"iteration":` + strconv.Itoa(iter) +
		`,"machines":2,"time_us":100,"compute":[1,1],"comm":[1,1],"waiting":[0,0],"steps":[0,0],"edges":[8,4],"vertices":[2,2],"messages":[3,1]` + extra + `}}` + "\n"
}

// Phase and Pairs are decoded with the rest of the superstep: absent means
// "" and nil (an algorithm superstep, matrix capture off), a present but
// malformed matrix is an error naming the superstep, and an old resource
// log's scalar-only copy of the event is skipped, not an error.
func TestSuperstepPhaseAndPairs(t *testing.T) {
	scalarOnly := `{"ts":"2026-08-07T12:00:00Z","type":"event","name":"cluster.superstep","attrs":{"iteration":5,"machines":2,"time_us":100,"phase":"restore","res_wall_us":12}}` + "\n"
	tr, err := Read(strings.NewReader(superstepLine(0, "") + scalarOnly +
		superstepLine(1, `,"pairs":[[0,3],[1,0]],"phase":"restream"`)))
	if err != nil {
		t.Fatal(err)
	}
	steps, err := Supersteps(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 2 {
		t.Fatalf("decoded %d supersteps, want 2 (the scalar-only copy skipped)", len(steps))
	}
	if steps[0].Phase != "" || steps[0].Work.Pairs != nil {
		t.Fatalf("superstep without phase/pairs attrs: %+v", steps[0])
	}
	if steps[1].Phase != "restream" || !reflect.DeepEqual(steps[1].Work.Pairs, [][]int64{{0, 3}, {1, 0}}) {
		t.Fatalf("superstep with phase/pairs attrs: %+v", steps[1])
	}
	for name, pairs := range map[string]string{
		"too few rows":  `[[0,3]]`,
		"ragged row":    `[[0,3],[1]]`,
		"non-numeric":   `[[0,"x"],[1,0]]`,
		"not a matrix":  `"garbage"`,
		"flat array":    `[0,3,1,0]`,
		"null":          `null`,
		"nested object": `[[0,3],{"a":1}]`,
	} {
		tr, err := Read(strings.NewReader(superstepLine(7, `,"pairs":`+pairs)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Supersteps(tr); err == nil || !strings.Contains(err.Error(), "superstep 7: bad pairs matrix") {
			t.Errorf("%s: err = %v, want one naming superstep 7's matrix", name, err)
		}
	}
	// Some per-machine arrays but not all: an incompatible writer, an error.
	partial := `{"ts":"2026-08-07T12:00:00Z","type":"event","name":"cluster.superstep","attrs":{"iteration":3,"machines":2,"time_us":1,"compute":[1,1]}}` + "\n"
	tr, err = Read(strings.NewReader(partial))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Supersteps(tr); err == nil {
		t.Error("a superstep with only a compute array decoded")
	}
}

// A machine-count change splits a run even when the iteration counter
// keeps climbing, and a reset splits it at equal size.
func TestGroupRunsSplitsOnReset(t *testing.T) {
	on := func(iter, machines int) Superstep {
		return Superstep{Iteration: iter, IterationStats: cluster.IterationStats{Compute: make([]float64, machines)}}
	}
	steps := []Superstep{
		on(0, 2), on(1, 2),
		on(0, 2), // new cluster: counter reset
		on(1, 3), // machine-count change
	}
	runs := GroupRuns(steps)
	if len(runs) != 3 || len(runs[0]) != 2 || len(runs[1]) != 1 || len(runs[2]) != 1 {
		t.Fatalf("runs = %v", runs)
	}
}

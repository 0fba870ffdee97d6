package cluster

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"bpart/internal/telemetry"
)

func mustNew(t *testing.T, assignment []int, k int) *Cluster {
	t.Helper()
	c, err := New(assignment, k, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]int{0, 1}, 0, DefaultCostModel()); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := New([]int{0, 5}, 2, DefaultCostModel()); err == nil {
		t.Fatal("out-of-range owner accepted")
	}
	c := mustNew(t, []int{0, 1, 1}, 2)
	if c.NumMachines() != 2 {
		t.Fatalf("NumMachines = %d", c.NumMachines())
	}
	if c.Owner(2) != 1 {
		t.Fatalf("Owner(2) = %d", c.Owner(2))
	}
}

func TestFinishIterationTiming(t *testing.T) {
	model := CostModel{StepCost: 1, EdgeCost: 0, VertexCost: 0, MessageCost: 2, Latency: 10}
	c, err := New([]int{0, 1}, 2, model)
	if err != nil {
		t.Fatal(err)
	}
	w := c.NewCounters()
	w.Steps[0] = 100 // compute 100
	w.Steps[1] = 40  // compute 40
	w.Messages[0] = 5
	w.Messages[1] = 10 // comm 20
	st := c.FinishIteration(w)
	if st.Compute[0] != 100 || st.Compute[1] != 40 {
		t.Fatalf("compute %v", st.Compute)
	}
	if st.Comm[0] != 10 || st.Comm[1] != 20 {
		t.Fatalf("comm %v", st.Comm)
	}
	// Time = maxCompute(100) + maxComm(20) + latency(10)
	if st.Time != 130 {
		t.Fatalf("Time = %v, want 130", st.Time)
	}
	// Waiting: machine 0 waits 0 compute + 10 comm; machine 1 waits 60+0.
	if st.Waiting[0] != 10 || st.Waiting[1] != 60 {
		t.Fatalf("Waiting = %v", st.Waiting)
	}
}

func TestFinishIterationCopiesCounters(t *testing.T) {
	c := mustNew(t, []int{0}, 1)
	w := c.NewCounters()
	w.Steps[0] = 7
	st := c.FinishIteration(w)
	w.Steps[0] = 99
	if st.Work.Steps[0] != 7 {
		t.Fatal("IterationStats aliases live counters")
	}
}

func TestRunStatsAggregation(t *testing.T) {
	model := CostModel{StepCost: 1, MessageCost: 1, Latency: 0}
	c, err := New([]int{0, 1}, 2, model)
	if err != nil {
		t.Fatal(err)
	}
	var run RunStats
	for i := 0; i < 3; i++ {
		w := c.NewCounters()
		w.Steps[0] = 10
		w.Steps[1] = 10
		w.Messages[0] = 2
		run.Add(c.FinishIteration(w))
	}
	if got := run.TotalTime(); got != 3*(10+2) {
		t.Fatalf("TotalTime = %v", got)
	}
	if got := run.TotalMessages(); got != 6 {
		t.Fatalf("TotalMessages = %d", got)
	}
	// machine 1 waits 2 comm units per iteration.
	if got := run.TotalWaiting(); got != 6 {
		t.Fatalf("TotalWaiting = %v", got)
	}
	wantRatio := 6.0 / (36 * 2)
	if got := run.WaitRatio(); math.Abs(got-wantRatio) > 1e-12 {
		t.Fatalf("WaitRatio = %v, want %v", got, wantRatio)
	}
	cb := run.ComputeByMachine()
	if cb[0] != 30 || cb[1] != 30 {
		t.Fatalf("ComputeByMachine = %v", cb)
	}
}

func TestRunStatsEmpty(t *testing.T) {
	var run RunStats
	if run.WaitRatio() != 0 || run.TotalTime() != 0 || run.ComputeByMachine() != nil {
		t.Fatal("empty RunStats not zero")
	}
}

func TestBalancedLoadZeroWaiting(t *testing.T) {
	c := mustNew(t, []int{0, 1, 2, 3}, 4)
	w := c.NewCounters()
	for i := range w.Steps {
		w.Steps[i] = 1000
		w.Messages[i] = 50
	}
	st := c.FinishIteration(w)
	for i, wt := range st.Waiting {
		if wt != 0 {
			t.Fatalf("machine %d waits %v under perfect balance", i, wt)
		}
	}
}

func TestPipelinedTiming(t *testing.T) {
	model := CostModel{StepCost: 1, MessageCost: 2, Latency: 10, Pipelined: true}
	c, err := New([]int{0, 1}, 2, model)
	if err != nil {
		t.Fatal(err)
	}
	w := c.NewCounters()
	w.Steps[0] = 100   // compute 100
	w.Messages[1] = 30 // comm 60
	st := c.FinishIteration(w)
	// Pipelined: time = max(100, 60) + 10.
	if st.Time != 110 {
		t.Fatalf("pipelined Time = %v, want 110", st.Time)
	}
	// Machine 0 busy 100 (compute-bound), waits 0; machine 1 busy 60, waits 40.
	if st.Waiting[0] != 0 || st.Waiting[1] != 40 {
		t.Fatalf("pipelined Waiting = %v", st.Waiting)
	}
}

func TestPipelinedNeverSlower(t *testing.T) {
	base := DefaultCostModel()
	pipe := base
	pipe.Pipelined = true
	c1, _ := New([]int{0, 1, 2}, 3, base)
	c2, _ := New([]int{0, 1, 2}, 3, pipe)
	w := c1.NewCounters()
	for i := range w.Steps {
		w.Steps[i] = int64(100 * (i + 1))
		w.Messages[i] = int64(50 * (3 - i))
	}
	t1 := c1.FinishIteration(w)
	t2 := c2.FinishIteration(w)
	if t2.Time > t1.Time {
		t.Fatalf("pipelined time %v exceeds sequential %v", t2.Time, t1.Time)
	}
}

func TestSpeedsValidation(t *testing.T) {
	m := DefaultCostModel()
	m.Speeds = []float64{1}
	if _, err := New([]int{0, 1}, 2, m); err == nil {
		t.Fatal("speed length mismatch accepted")
	}
	m.Speeds = []float64{1, 0}
	if _, err := New([]int{0, 1}, 2, m); err == nil {
		t.Fatal("zero speed accepted")
	}
}

func TestSpeedsSlowMachineTakesLonger(t *testing.T) {
	m := CostModel{StepCost: 1, Speeds: []float64{0.5, 1}}
	c, err := New([]int{0, 1}, 2, m)
	if err != nil {
		t.Fatal(err)
	}
	w := c.NewCounters()
	w.Steps[0] = 100
	w.Steps[1] = 100
	st := c.FinishIteration(w)
	if st.Compute[0] != 200 || st.Compute[1] != 100 {
		t.Fatalf("compute %v, want [200 100]", st.Compute)
	}
	if st.Waiting[1] != 100 {
		t.Fatalf("fast machine waiting %v, want 100", st.Waiting[1])
	}
}

func TestWriteTimeline(t *testing.T) {
	c := mustNew(t, []int{0, 1}, 2)
	var run RunStats
	w := c.NewCounters()
	w.Steps[0] = 5
	w.Messages[1] = 3
	run.Add(c.FinishIteration(w))
	var buf strings.Builder
	if err := run.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // header + 2 machines × 1 iteration
		t.Fatalf("timeline lines = %d:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "iteration,machine,") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "0,0,") || !strings.HasPrefix(lines[2], "0,1,") {
		t.Fatalf("rows wrong:\n%s", buf.String())
	}
}

// Property: waiting is non-negative, the slowest machine never waits in its
// dominant phase, and Time ≥ every machine's own busy time.
func TestQuickTimingInvariants(t *testing.T) {
	f := func(steps, msgs [4]uint16) bool {
		c, err := New([]int{0, 1, 2, 3}, 4, DefaultCostModel())
		if err != nil {
			return false
		}
		w := c.NewCounters()
		for i := 0; i < 4; i++ {
			w.Steps[i] = int64(steps[i])
			w.Messages[i] = int64(msgs[i])
		}
		st := c.FinishIteration(w)
		for i := 0; i < 4; i++ {
			if st.Waiting[i] < -1e9 {
				return false
			}
			busy := st.Compute[i] + st.Comm[i]
			if st.Time < busy {
				return false
			}
			if math.Abs(st.Time-(busy+st.Waiting[i]+c.Model().Latency)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Regression: New must copy the assignment slice. Before the fix it stored
// the caller's slice, so mutating it silently re-homed vertices.
func TestNewCopiesAssignment(t *testing.T) {
	assignment := []int{0, 1, 1}
	c := mustNew(t, assignment, 2)
	// Clobber every entry of the caller's slice: the cluster must have
	// taken its own copy at construction, not aliased ours.
	for i := range assignment {
		assignment[i] = 0
	}
	want := []int{0, 1, 1}
	for v, w := range want {
		if got := c.Owner(uint32(v)); got != w {
			t.Fatalf("Owner(%d) = %d after caller mutated its slice, want %d", v, got, w)
		}
	}
}

// Degenerate runs: zero machines in the first iteration, zero-time runs.
func TestRunStatsDegenerate(t *testing.T) {
	// First iteration has zero machines: WaitRatio must not divide by the
	// machine count of a non-existent fleet.
	zeroMachines := RunStats{Iterations: []IterationStats{{}}}
	if got := zeroMachines.WaitRatio(); got != 0 {
		t.Fatalf("WaitRatio with zero machines = %v, want 0", got)
	}
	if got := zeroMachines.TotalMessages(); got != 0 {
		t.Fatalf("TotalMessages with zero machines = %d, want 0", got)
	}
	if got := zeroMachines.ComputeByMachine(); len(got) != 0 {
		t.Fatalf("ComputeByMachine with zero machines = %v, want empty", got)
	}

	// All-zero work: total time is zero (zero latency), ratio must be 0,
	// not NaN.
	c, err := New([]int{0, 1}, 2, CostModel{})
	if err != nil {
		t.Fatal(err)
	}
	var run RunStats
	run.Add(c.FinishIteration(c.NewCounters()))
	if got := run.WaitRatio(); got != 0 || math.IsNaN(got) {
		t.Fatalf("WaitRatio of zero-cost run = %v, want 0", got)
	}
	if got := run.TotalMessages(); got != 0 {
		t.Fatalf("TotalMessages = %d, want 0", got)
	}
	if got := run.ComputeByMachine(); len(got) != 2 || got[0] != 0 || got[1] != 0 {
		t.Fatalf("ComputeByMachine = %v, want [0 0]", got)
	}
}

// Golden round-trip: exact CSV bytes for a two-machine, two-iteration run.
func TestWriteTimelineGolden(t *testing.T) {
	model := CostModel{StepCost: 1, MessageCost: 2, Latency: 10}
	c, err := New([]int{0, 1}, 2, model)
	if err != nil {
		t.Fatal(err)
	}
	var run RunStats
	w := c.NewCounters()
	w.Steps[0], w.Steps[1] = 3, 1
	w.Messages[1] = 2
	run.Add(c.FinishIteration(w))
	w = c.NewCounters()
	w.Edges[0] = 4
	run.Add(c.FinishIteration(w))

	var buf strings.Builder
	if err := run.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	want := "iteration,machine,compute,comm,waiting,steps,edges,messages,received\n" +
		"0,0,3.000,0.000,4.000,3,0,0,0\n" +
		"0,1,1.000,4.000,2.000,1,0,2,0\n" +
		"1,0,0.000,0.000,0.000,0,4,0,0\n" +
		"1,1,0.000,0.000,0.000,0,0,0,0\n"
	if buf.String() != want {
		t.Fatalf("timeline CSV:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// With matrix capture on, the received column is the matrix column sum —
// machine 0's two messages to machine 1 show up as received by 1.
func TestWriteTimelineGoldenWithPairs(t *testing.T) {
	model := CostModel{StepCost: 1, MessageCost: 2, Latency: 10}
	c, err := New([]int{0, 1}, 2, model)
	if err != nil {
		t.Fatal(err)
	}
	c.SetCommMatrix(true)
	var run RunStats
	w := c.NewCounters()
	w.Steps[0] = 3
	w.Messages[0] = 2
	w.Pairs[0][1] = 2
	run.Add(c.FinishIteration(w))

	var buf strings.Builder
	if err := run.WriteTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	want := "iteration,machine,compute,comm,waiting,steps,edges,messages,received\n" +
		"0,0,3.000,4.000,0.000,3,0,2,0\n" +
		"0,1,0.000,0.000,7.000,0,0,0,2\n"
	if buf.String() != want {
		t.Fatalf("timeline CSV:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// failAfter errors once n bytes have been written.
type failAfter struct {
	n       int
	written int
}

func (f *failAfter) Write(p []byte) (int, error) {
	if f.written+len(p) > f.n {
		allowed := f.n - f.written
		if allowed < 0 {
			allowed = 0
		}
		f.written += allowed
		return allowed, errShortWrite
	}
	f.written += len(p)
	return len(p), nil
}

var errShortWrite = errors.New("writer full")

func TestWriteTimelineWriterError(t *testing.T) {
	c := mustNew(t, []int{0, 1}, 2)
	var run RunStats
	for i := 0; i < 2000; i++ {
		w := c.NewCounters()
		w.Steps[0] = int64(i)
		run.Add(c.FinishIteration(w))
	}
	// Fail at several depths: inside the header, inside the rows, and at
	// the final flush.
	for _, limit := range []int{4, 100, 60000} {
		if err := run.WriteTimeline(&failAfter{n: limit}); !errors.Is(err, errShortWrite) {
			t.Fatalf("limit %d: error = %v, want errShortWrite", limit, err)
		}
	}
}

// Telemetry: every finished superstep emits one cluster.superstep record
// mirroring the IterationStats, and counters accumulate.
func TestSuperstepTelemetry(t *testing.T) {
	model := CostModel{StepCost: 1, MessageCost: 2, Latency: 10}
	c, err := New([]int{0, 1}, 2, model)
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewMemory()
	reg := telemetry.NewRegistry()
	c.SetTelemetry(tr, reg)

	w := c.NewCounters()
	w.Steps[0], w.Steps[1] = 3, 1
	w.Messages[1] = 2
	st := c.FinishIteration(w)
	w = c.NewCounters()
	c.FinishIteration(w)

	recs := tr.Find("cluster.superstep")
	if len(recs) != 2 {
		t.Fatalf("got %d superstep records, want 2", len(recs))
	}
	first := recs[0]
	if got := first.Attr("iteration"); got != int64(0) {
		t.Fatalf("iteration attr = %v, want 0", got)
	}
	if got := first.Attr("time_us"); got != st.Time {
		t.Fatalf("time_us attr = %v, want %v", got, st.Time)
	}
	comp, ok := first.Attr("compute").([]float64)
	if !ok || len(comp) != 2 || comp[0] != st.Compute[0] || comp[1] != st.Compute[1] {
		t.Fatalf("compute attr = %v, want %v", first.Attr("compute"), st.Compute)
	}
	msgs, ok := first.Attr("messages").([]int64)
	if !ok || msgs[1] != 2 {
		t.Fatalf("messages attr = %v", first.Attr("messages"))
	}
	if got := recs[1].Attr("iteration"); got != int64(1) {
		t.Fatalf("second iteration attr = %v, want 1", got)
	}

	if got := reg.Counter("cluster_superstep_total").Value(); got != 2 {
		t.Fatalf("supersteps counter = %d, want 2", got)
	}

	// Detaching restores the no-op path.
	c.SetTelemetry(nil, nil)
	c.FinishIteration(c.NewCounters())
	if got := len(tr.Find("cluster.superstep")); got != 2 {
		t.Fatalf("detached cluster still recorded: %d records", got)
	}
}

// Histograms are read off the trace (the BENCH artifact's sink): every
// FinishIteration's record carries the superstep duration and each
// machine's compute load and message batch, and a registry attached alone
// still receives — and counts — every record.
func TestSuperstepHistograms(t *testing.T) {
	model := CostModel{StepCost: 1, MessageCost: 2, Latency: 10}
	c, err := New([]int{0, 1}, 2, model)
	if err != nil {
		t.Fatal(err)
	}
	mem := telemetry.NewMemory()
	c.SetTelemetry(mem, nil)

	w := c.NewCounters()
	w.Steps[0], w.Steps[1] = 3, 1
	w.Messages[1] = 2
	st := c.FinishIteration(w)
	c.FinishIteration(c.NewCounters())

	recs := mem.Find("cluster.superstep")
	if len(recs) != 2 {
		t.Fatalf("superstep records = %d, want 2", len(recs))
	}
	if got := recs[0].Attr("time_us"); got != st.Time {
		t.Fatalf("superstep time = %v, want %v", got, st.Time)
	}
	var computes, msgs int
	var msgSum int64
	for _, r := range recs {
		computes += len(r.Attr("compute").([]float64))
		for _, m := range r.Attr("messages").([]int64) {
			msgs++
			msgSum += m
		}
	}
	if computes != 4 || msgs != 4 {
		t.Fatalf("compute/message samples = %d/%d, want 2 machines x 2 iterations", computes, msgs)
	}
	if msgSum != 2 {
		t.Fatalf("message batch sum = %v, want 2", msgSum)
	}

	reg := telemetry.NewRegistry()
	c.SetTelemetry(nil, reg)
	c.FinishIteration(c.NewCounters())
	if got := reg.Counter("cluster_superstep_total").Value(); got != 1 {
		t.Fatalf("registry alone counted %d supersteps, want 1", got)
	}
}

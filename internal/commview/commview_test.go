package commview

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bpart/internal/cluster"
	"bpart/internal/partaudit"
	"bpart/internal/traceview"
)

// Superstep is the one decoded superstep; the alias keeps the table
// literals below short.
type Superstep = traceview.Superstep

// onMachines is the IterationStats of a superstep that did work w, with
// its per-machine compute sized to w's machine count.
func onMachines(w cluster.Counters) cluster.IterationStats {
	return cluster.IterationStats{Compute: make([]float64, len(w.Messages)), Work: w}
}

// decode is the read path cmd/tracestat comm uses: traceview.Read, then
// traceview.Supersteps.
func decode(trace string) ([]Superstep, bool, error) {
	tr, err := traceview.Read(strings.NewReader(trace))
	if err != nil {
		return nil, false, err
	}
	steps, err := traceview.Supersteps(tr)
	return steps, tr.Truncated, err
}

func mustDecode(t *testing.T, trace string) []Superstep {
	t.Helper()
	steps, _, err := decode(trace)
	if err != nil {
		t.Fatal(err)
	}
	return steps
}

// sampleTrace is a two-superstep, two-machine trace with pairs matrices,
// plus one pre-commview superstep (no pairs attr) that must be skipped.
const sampleTrace = `{"ts":"2026-08-07T12:00:00Z","type":"event","name":"cluster.superstep","attrs":{"iteration":0,"machines":2,"time_us":100,"waiting_us_total":0,"compute":[1,1],"comm":[1,1],"waiting":[0,0],"steps":[0,0],"edges":[10,10],"vertices":[2,2],"messages":[3,1],"pairs":[[0,3],[1,0]]}}
{"ts":"2026-08-07T12:00:01Z","type":"event","name":"cluster.superstep","attrs":{"iteration":1,"machines":2,"time_us":100,"waiting_us_total":0,"compute":[1,1],"comm":[1,1],"waiting":[0,0],"steps":[0,0],"edges":[8,4],"vertices":[2,2],"messages":[2,0],"pairs":[[0,2],[0,0]],"phase":"restream"}}
{"ts":"2026-08-07T12:00:02Z","type":"event","name":"cluster.superstep","attrs":{"iteration":2,"machines":2,"time_us":100,"waiting_us_total":0,"compute":[1,1],"comm":[1,1],"waiting":[0,0],"steps":[0,0],"edges":[1,1],"vertices":[1,1],"messages":[0,0]}}
`

func TestReadDecodesPairs(t *testing.T) {
	all := mustDecode(t, sampleTrace)
	steps := withMatrix(all)
	if len(all) != 3 || len(steps) != 2 {
		t.Fatalf("decoded %d steps, %d with a matrix, want 3 and 2 (pairs-less superstep skipped)", len(all), len(steps))
	}
	st := steps[0]
	if st.Iteration != 0 || len(st.Compute) != 2 || st.Phase != "" {
		t.Fatalf("step 0 = %+v", st)
	}
	if st.Work.Pairs[0][1] != 3 || st.Work.Pairs[1][0] != 1 {
		t.Fatalf("step 0 pairs = %v", st.Work.Pairs)
	}
	if steps[1].Phase != "restream" {
		t.Fatalf("step 1 phase = %q, want restream", steps[1].Phase)
	}
	if err := CheckMessages(all); err != nil {
		t.Fatalf("CheckMessages: %v", err)
	}
}

func TestReadRejectsMalformedPairs(t *testing.T) {
	for name, trace := range map[string]string{
		"wrong shape":      `{"ts":"2026-08-07T12:00:00Z","type":"event","name":"cluster.superstep","attrs":{"iteration":0,"machines":2,"time_us":1,"compute":[1,1],"comm":[1,1],"waiting":[0,0],"steps":[0,0],"edges":[1,1],"vertices":[1,1],"messages":[0,0],"pairs":[[0,0]]}}` + "\n",
		"non-numeric":      `{"ts":"2026-08-07T12:00:00Z","type":"event","name":"cluster.superstep","attrs":{"iteration":0,"machines":2,"time_us":1,"compute":[1,1],"comm":[1,1],"waiting":[0,0],"steps":[0,0],"edges":[1,1],"vertices":[1,1],"messages":[0,0],"pairs":[[0,"x"],[0,0]]}}` + "\n",
		"missing messages": `{"ts":"2026-08-07T12:00:00Z","type":"event","name":"cluster.superstep","attrs":{"iteration":0,"machines":2,"time_us":1,"compute":[1,1],"comm":[1,1],"waiting":[0,0],"pairs":[[0,0],[0,0]]}}` + "\n",
	} {
		if _, _, err := decode(trace); err == nil {
			t.Errorf("%s: a malformed matrix decoded", name)
		}
	}
}

// A crashed run's torn final line is traceview.Read's to tolerate; the
// report says so and covers the intact prefix.
func TestReadTornTail(t *testing.T) {
	steps, truncated, err := decode(sampleTrace + `{"ts":"2026-08-07T12:0`)
	if err != nil || !truncated || len(withMatrix(steps)) != 2 {
		t.Fatalf("torn trace: %d matrix steps, truncated=%v, %v", len(withMatrix(steps)), truncated, err)
	}
	var text strings.Builder
	if err := WriteReport(&text, steps, truncated, nil); err != nil {
		t.Fatal(err)
	}
	if out := text.String(); !strings.Contains(out, "final trace line torn") || !strings.Contains(out, "RUN 1") {
		t.Fatalf("torn-trace report lacks the warning or the run:\n%s", out)
	}
}

func TestCheckMessagesViolations(t *testing.T) {
	base := func() []Superstep {
		return []Superstep{{Iteration: 0, IterationStats: onMachines(cluster.Counters{
			Pairs:    [][]int64{{0, 2}, {1, 0}},
			Messages: []int64{2, 1},
			Edges:    []int64{4, 4},
			Steps:    []int64{0, 0},
		})}}
	}
	ok := base()
	if err := CheckMessages(ok); err != nil {
		t.Fatalf("valid steps rejected: %v", err)
	}
	badSum := base()
	badSum[0].Work.Messages[0] = 5
	if err := CheckMessages(badSum); err == nil {
		t.Fatal("row-sum mismatch accepted")
	}
	badDiag := base()
	badDiag[0].Work.Pairs[0][0] = 1
	badDiag[0].Work.Messages[0] = 3
	if err := CheckMessages(badDiag); err == nil {
		t.Fatal("nonzero diagonal accepted")
	}
	badNeg := base()
	badNeg[0].Work.Pairs[0][1] = -2
	if err := CheckMessages(badNeg); err == nil {
		t.Fatal("negative pair count accepted")
	}
}

func TestSummarize(t *testing.T) {
	run := []Superstep{
		{Iteration: 0, IterationStats: onMachines(cluster.Counters{
			Pairs:    [][]int64{{0, 4, 1}, {2, 0, 0}, {1, 0, 0}},
			Messages: []int64{5, 2, 1},
		})},
		{Iteration: 1, IterationStats: onMachines(cluster.Counters{
			Pairs:    [][]int64{{0, 4, 0}, {0, 0, 0}, {0, 0, 0}},
			Messages: []int64{4, 0, 0},
		})},
	}
	s := Summarize(run)
	if s.Messages != 12 {
		t.Fatalf("Messages = %d, want 12", s.Messages)
	}
	if s.Matrix[0][1] != 8 {
		t.Fatalf("Matrix[0][1] = %d, want 8", s.Matrix[0][1])
	}
	if s.Out[0] != 9 || s.In[1] != 8 {
		t.Fatalf("Out = %v, In = %v", s.Out, s.In)
	}
	if s.HotSrc != 0 || s.HotDst != 1 || s.HotMessages != 8 || s.HotSlack != 6 {
		t.Fatalf("hot pair = M%d->M%d %d slack %d", s.HotSrc, s.HotDst, s.HotMessages, s.HotSlack)
	}
	if s.ActivePairs != 4 {
		t.Fatalf("ActivePairs = %d, want 4", s.ActivePairs)
	}
	// Machine totals: M0 = 9+3 = 12, M1 = 2+8 = 10, M2 = 1+1 = 2;
	// mean = 8, max = 12 → imbalance 1.5.
	if s.ImbalanceRatio != 1.5 {
		t.Fatalf("ImbalanceRatio = %v, want 1.5", s.ImbalanceRatio)
	}
	if s.PerStepMessages[1] != 4 || s.PerStepActivePairs[1] != 1 {
		t.Fatalf("evolution = %v / %v", s.PerStepMessages, s.PerStepActivePairs)
	}
}

func TestSummarizeDegenerate(t *testing.T) {
	if s := Summarize(nil); s.Machines != 0 || s.Messages != 0 {
		t.Fatalf("empty run summary = %+v", s)
	}
	// All-zero matrix: no active pairs, hot pair present but zero.
	s := Summarize([]Superstep{{Iteration: 0, IterationStats: onMachines(cluster.Counters{
		Pairs: [][]int64{{0, 0}, {0, 0}}, Messages: []int64{0, 0},
	})}})
	if s.ImbalanceRatio != 0 || s.PairJain != 0 || s.ActivePairs != 0 {
		t.Fatalf("zero-traffic summary = %+v", s)
	}
}

func TestPairJainBounds(t *testing.T) {
	flat := pairJain([][]int64{{0, 5, 5}, {5, 0, 5}, {5, 5, 0}})
	if flat != 1 {
		t.Fatalf("flat Jain = %v, want 1", flat)
	}
	// One pair carries everything: 1/(K·(K−1)) = 1/6.
	skew := pairJain([][]int64{{0, 9, 0}, {0, 0, 0}, {0, 0, 0}})
	if diff := skew - 1.0/6; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("single-pair Jain = %v, want 1/6", skew)
	}
}

func TestReconcile(t *testing.T) {
	run := []Superstep{
		{Iteration: 0, IterationStats: onMachines(cluster.Counters{Messages: []int64{3, 1}, Edges: []int64{10, 10}, Steps: []int64{0, 0},
			Pairs: [][]int64{{0, 3}, {1, 0}}})},
		// Recovery phase: excluded from the observed side.
		{Iteration: 1, Phase: "restream", IterationStats: onMachines(cluster.Counters{Messages: []int64{100, 0}, Edges: []int64{0, 0}, Steps: []int64{0, 0},
			Pairs: [][]int64{{0, 100}, {0, 0}}})},
	}
	audit := &partaudit.Audit{Final: &partaudit.Final{CutRatio: 0.25}}
	r, err := Reconcile(run, audit)
	if err != nil {
		t.Fatal(err)
	}
	if r.Messages != 4 || r.Opportunities != 20 {
		t.Fatalf("observed %d/%d, want 4/20", r.Messages, r.Opportunities)
	}
	if r.ObservedCutShare != 0.2 || r.PredictedCutRatio != 0.25 {
		t.Fatalf("shares = %v vs %v", r.ObservedCutShare, r.PredictedCutRatio)
	}
	if diff := r.Gap - (-0.05); diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("gap = %v, want -0.05", r.Gap)
	}

	// Fallback to the last window when there is no final record.
	windowed := &partaudit.Audit{Windows: []partaudit.Window{{CutRatio: 0.5}, {CutRatio: 0.3}}}
	r, err = Reconcile(run, windowed)
	if err != nil {
		t.Fatal(err)
	}
	if r.PredictedCutRatio != 0.3 {
		t.Fatalf("windowed predicted = %v, want 0.3", r.PredictedCutRatio)
	}

	if _, err := Reconcile(run, &partaudit.Audit{}); err == nil {
		t.Fatal("empty audit log accepted")
	}
	if _, err := Reconcile(nil, audit); err == nil {
		t.Fatal("empty run accepted")
	}
}

func TestWriteReportDeterministic(t *testing.T) {
	steps := mustDecode(t, sampleTrace)
	render := func() string {
		var b strings.Builder
		if err := WriteReport(&b, steps, false, &partaudit.Audit{Final: &partaudit.Final{CutRatio: 0.2}}); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	out := render()
	for _, want := range []string{
		"RUN 1", "comm imbalance ratio", "hot pair M0->M1",
		"src\\dst matrix", "[restream]", "reconciliation vs partitioner",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	if out != render() {
		t.Fatal("report not byte-identical across renders")
	}
}

// A cluster wider than maxMatrix elides its matrix, and a run longer than
// maxSupersteps elides the evolution table's tail; the summary still
// covers every superstep.
func TestWriteReportElidesPastCaps(t *testing.T) {
	k, n := maxMatrix+1, maxSupersteps+1
	steps := make([]Superstep, n)
	for i := range steps {
		pairs := make([][]int64, k)
		for j := range pairs {
			pairs[j] = make([]int64, k)
		}
		pairs[0][1] = 1
		messages := make([]int64, k)
		messages[0] = 1
		steps[i] = Superstep{Iteration: i, IterationStats: onMachines(cluster.Counters{Messages: messages, Pairs: pairs})}
	}
	var b strings.Builder
	if err := WriteReport(&b, steps, false, nil); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		fmt.Sprintf("RUN 1: %d machines, %d supersteps (0 recovery), %d cross-machine messages", k, n, n),
		fmt.Sprintf("(matrix elided: %d machines > %d)", k, maxMatrix),
		"... 1 more supersteps elided\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "src\\dst matrix") {
		t.Errorf("matrix printed for %d machines:\n%s", k, out)
	}
}

func TestWriteReportNoMatrices(t *testing.T) {
	var b strings.Builder
	if err := WriteReport(&b, nil, false, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "matrix capture was off") {
		t.Fatalf("empty-log report = %q", b.String())
	}
}

// The text the parent commit's `tracestat comm` printed for
// testdata/crash5_restream.trace.jsonl (two runs of `bench -scale 0.05 -id
// "Comm Matrix" -fault internal/fault/testdata/crash5_restream.json -trace`:
// a walk with checkpoints, then a PageRank with a restream and a restore),
// recorded before the superstep decode moved to traceview.
func TestGoldenReport(t *testing.T) {
	tr, err := traceview.ReadFile(filepath.Join("testdata", "crash5_restream.trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	steps, err := traceview.Supersteps(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckMessages(steps); err != nil {
		t.Fatal(err)
	}
	const golden = "crash5_restream.comm.txt"
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteReport(&got, steps, tr.Truncated, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("%s drifted from the parent's bytes:\n%s", golden, got.Bytes())
	}
}

// Writer errors must surface, not vanish — the errio discipline.
func TestWriteReportWriterError(t *testing.T) {
	steps := mustDecode(t, sampleTrace)
	if err := WriteReport(failWriter{}, steps, false, nil); err == nil {
		t.Fatal("WriteReport swallowed the writer error")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errFail }

var errFail = errorString("writer failed")

type errorString string

func (e errorString) Error() string { return string(e) }

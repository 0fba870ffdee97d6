package traceview

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"bpart/internal/core"
	"bpart/internal/gen"
	"bpart/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/traceview -update` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (run with -update to rewrite):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// The full terminal report over the checked-in fixture trace must stay
// byte-stable: it is the CLI's primary output.
func TestReportGolden(t *testing.T) {
	tr, err := ReadFile(filepath.Join("testdata", "sample.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, tr); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "report.golden", buf.Bytes())
}

// Spot-check the fixture's derived numbers by hand: the golden file should
// encode hand-verifiable arithmetic, not just whatever the code printed.
func TestReportFixtureArithmetic(t *testing.T) {
	tr, err := ReadFile(filepath.Join("testdata", "sample.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	steps, err := Supersteps(tr)
	if err != nil {
		t.Fatal(err)
	}
	runs := GroupRuns(steps)
	if len(runs) != 1 || len(runs[0]) != 2 {
		t.Fatalf("fixture runs = %v", runs)
	}
	b := DecomposeWaitRatio(runs[0])
	// Waiting totals: M0 = 10+10 = 20, M1 = 40+30 = 70; capacity = 300·2.
	if b.WaitRatio != 90.0/600.0 {
		t.Fatalf("fixture WaitRatio = %v, want 0.15", b.WaitRatio)
	}
	if b.Contribution[0] != 20.0/600.0 || b.Contribution[1] != 70.0/600.0 {
		t.Fatalf("fixture contributions = %v", b.Contribution)
	}
	cp := ComputeCriticalPath(runs[0])
	// iter 0: compute M0 100, comm M1 30, latency 20; iter 1: compute M1
	// 90, comm M0 40, latency 20.
	if cp.ComputeUS != 190 || cp.CommUS != 70 || cp.LatencyUS != 40 {
		t.Fatalf("fixture critical path = compute %v, comm %v, latency %v", cp.ComputeUS, cp.CommUS, cp.LatencyUS)
	}
	if cp.OnPathUS[0] != 140 || cp.OnPathUS[1] != 120 {
		t.Fatalf("fixture on-path = %v", cp.OnPathUS)
	}
	strag := Stragglers(runs[0])
	if strag[0].ComputeMachine != 0 || strag[0].ComputeSlackUS != 40 ||
		strag[0].CommMachine != 1 || strag[0].CommSlackUS != 10 {
		t.Fatalf("fixture iter 0 stragglers = %+v", strag[0])
	}
	if strag[1].ComputeMachine != 1 || strag[1].ComputeSlackUS != 10 ||
		strag[1].CommMachine != 0 || strag[1].CommSlackUS != 30 {
		t.Fatalf("fixture iter 1 stragglers = %+v", strag[1])
	}
}

// A report over a real traced run must not error and must carry the
// headline sections.
func TestReportOnRealTrace(t *testing.T) {
	tr, _ := tracedWalk(t, 5)
	var buf bytes.Buffer
	if err := WriteReport(&buf, tr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"TRACE SUMMARY",
		"SPANS BY NAME",
		"walk.run",
		"RUN 1:",
		"wait ratio",
		"per-machine contribution",
		"straggler attribution",
		"critical path",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// A malformed cluster.superstep fails the report before its first byte,
// not after three sections: stdout never holds half a report.
func TestReportMalformedSuperstepWritesNothing(t *testing.T) {
	tr := mustRead(t, `{"ts":"2026-08-06T10:00:00Z","type":"span","name":"walk.run","dur_us":1000}
{"ts":"2026-08-06T10:00:00.0001Z","type":"event","name":"cluster.superstep","attrs":{"iteration":0,"machines":2,"time_us":100,"compute":[50],"comm":[20,10],"waiting":[0,10],"steps":[1,1],"edges":[0,0],"vertices":[0,0],"messages":[10,10]}}
`)
	var buf bytes.Buffer
	if err := WriteReport(&buf, tr); err == nil || buf.Len() != 0 {
		t.Fatalf("WriteReport err %v after %d bytes, want an error before the first:\n%s", err, buf.Len(), buf.String())
	}
}

// A run longer than maxSupersteps elides the straggler table's tail, and
// more than maxTreeSpans spans elide the phase tree's; the run summary
// still covers every superstep.
func TestReportElidesPastCaps(t *testing.T) {
	var in strings.Builder
	for i := 0; i <= maxTreeSpans; i++ {
		fmt.Fprintf(&in, `{"ts":"2026-08-06T10:00:00Z","type":"span","name":"s%d","dur_us":1}`+"\n", i)
	}
	for i := 0; i <= maxSupersteps; i++ {
		fmt.Fprintf(&in, `{"ts":"2026-08-06T10:00:01Z","type":"event","name":"cluster.superstep","attrs":{"iteration":%d,"machines":2,"time_us":150,"compute":[100,60],"comm":[20,30],"waiting":[10,40],"steps":[1,1],"edges":[0,0],"vertices":[0,0],"messages":[5,3]}}`+"\n", i)
	}
	tr, err := Read(strings.NewReader(in.String()))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, tr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		fmt.Sprintf("RUN 1: 2 machines, %d supersteps", maxSupersteps+1),
		"  ... 1 more spans elided\n",
		"    ... 1 more supersteps elided\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// The straggler table shows maxSupersteps rows, and its elision line
	// stands where the last superstep's row would be.
	lines := strings.Split(out, "\n")
	row := func(iter int) int {
		return slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, fmt.Sprintf("    %5d  ", iter)) })
	}
	if i := row(maxSupersteps - 1); i < 0 || lines[i+1] != "    ... 1 more supersteps elided" || row(maxSupersteps) >= 0 {
		t.Errorf("straggler table not cut after %d rows:\n%s", maxSupersteps, out)
	}
}

// A traced BPart run's span table is its span tree: every row is a span
// name (the partition, its layers, their streams and the refine pass),
// none is an audit.* event, each carries its resource deltas, and the
// whole partition leads.
func TestBPartTracePhasesAreSpans(t *testing.T) {
	g, err := gen.Preset(gen.TwitterSim, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	trace := telemetry.NewJSONL(&buf)
	b.SetTelemetry(trace, nil)
	if _, err := b.Partition(g, 8); err != nil {
		t.Fatal(err)
	}
	if err := trace.Close(); err != nil {
		t.Fatal(err)
	}
	tr := mustRead(t, buf.String())
	if al, err := tr.Audit(); err != nil || len(al.Decisions) == 0 {
		t.Fatalf("the traced run emitted no audit decisions: %v", err)
	}
	sums, err := SummarizeSpans(tr)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range sums {
		names = append(names, s.Name)
		if s.Allocs == 0 && s.AllocBytes == 0 {
			t.Errorf("span row %+v carries no resource deltas", s)
		}
	}
	slices.Sort(names)
	if want := []string{"bpart.layer", "bpart.partition", "bpart.refine", "partition.stream"}; !slices.Equal(names, want) {
		t.Fatalf("span rows %v, want the run's span names %v", names, want)
	}
	if sums[0].Name != "bpart.partition" || sums[0].Count != 1 {
		t.Fatalf("largest row %+v, want the one bpart.partition span", sums[0])
	}
}

// A span table with res_* deltas gains the alloc, allocs and gc columns;
// a span that measured none shows "-" in them.
func TestWriteReportResourceColumns(t *testing.T) {
	tr := mustRead(t, resLine(0, "partition.stream", 2500)+resLine(1, "walk.run", 1000)+
		`{"ts":"2026-08-06T10:00:02Z","type":"span","name":"plain","dur_us":10}`+"\n")
	var buf bytes.Buffer
	if err := WriteReport(&buf, tr); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"  name               count       total         max       alloc    allocs            gc\n",
		"  partition.stream       1       2.5ms       2.5ms      4.0KiB        10     1 (5.0us)\n",
		"  walk.run               1       1.0ms       1.0ms      4.0KiB        10     1 (5.0us)\n",
		"  plain                  1      10.0us      10.0us           -         -             -\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// A crashed run's torn final line is Read's to tolerate: the report says
// so and its span table covers the intact prefix, deltas included.
func TestWriteReportTornResourceLog(t *testing.T) {
	tr := mustRead(t, resLine(0, "a", 100)+`{"ts":"2026-08-20T12:0`)
	var buf bytes.Buffer
	if err := WriteReport(&buf, tr); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"  records 1  (spans 1, events 0, degraded 0)\n",
		"WARNING: final line torn",
		"  a          1     100.0us     100.0us      4.0KiB        10     1 (5.0us)\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("report missing %q:\n%s", want, buf.String())
		}
	}
}

// A resource log recorded by an earlier writer sums to the numbers its
// own resource report printed (name, count, wall time to 10us, alloc
// bytes, allocs, GC cycles and pause to 1us), row for row and in that
// order. Its cluster.superstep laps are events, so they are no row.
func TestParentRecordedLogSummarizesIdentically(t *testing.T) {
	tr, err := ReadFile(filepath.Join("testdata", "parent_pr15.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	sums, err := SummarizeSpans(tr)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name       string
		count      int
		wall10us   float64
		alloc      string
		allocs, gc int64
		pauseUS    float64
	}{
		{"bench.experiment", 1, 14245, "10.46MiB", 9581, 3, 262},
		{"scaling.replay", 16, 3098, "1.78MiB", 4225, 0, 0},
		{"bpart.partition", 1, 256, "625.1KiB", 479, 0, 0},
		{"bpart.layer", 2, 174, "105.0KiB", 367, 0, 0},
		{"partition.stream", 2, 112, "688B", 8, 0, 0},
		{"bpart.refine", 1, 19, "30.1KiB", 56, 0, 0},
		{"bpart.combine.round", 3, 13, "2.5KiB", 56, 0, 0},
	}
	if len(sums) != len(want) {
		t.Fatalf("got %d rows, want %d: %+v", len(sums), len(want), sums)
	}
	for i, w := range want {
		s := sums[i]
		if s.Name != w.name || s.Count != w.count || math.Round(s.TotalUS/10) != w.wall10us ||
			fmtBytes(s.AllocBytes) != w.alloc || s.Allocs != w.allocs || s.GCCycles != w.gc || math.Round(s.GCPauseUS) != w.pauseUS {
			t.Errorf("row %d = %+v, want %+v", i, s, w)
		}
	}
}

func TestFmtUS(t *testing.T) {
	cases := map[float64]string{
		12.3:    "12.3us",
		1500:    "1.5ms",
		2500000: "2.50s",
	}
	for in, want := range cases {
		if got := fmtUS(in); got != want {
			t.Errorf("fmtUS(%v) = %q, want %q", in, got, want)
		}
	}
}

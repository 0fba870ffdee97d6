package traceview

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
	if cp.Pipelined {
		t.Fatal("fixture inferred pipelined")
	}
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
	buf.Reset()
	steps, err := Supersteps(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteStragglers(&buf, 1, steps); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "    ... 1 more supersteps elided\n") {
		t.Errorf("stragglers did not elide:\n%s", buf.String())
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

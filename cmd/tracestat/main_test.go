package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleTrace = `{"ts":"2026-08-06T10:00:00Z","type":"span","name":"walk.run","dur_us":1000}
{"ts":"2026-08-06T10:00:00.0001Z","type":"event","name":"cluster.superstep","attrs":{"iteration":0,"machines":2,"time_us":100,"compute":[50,40],"comm":[20,10],"waiting":[0,10],"steps":[1,1],"edges":[0,0],"vertices":[0,0],"messages":[10,10]}}
`

func writeTrace(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestReportSubcommand(t *testing.T) {
	path := writeTrace(t, "a.jsonl", sampleTrace)
	code, out, errb := runCLI(t, "report", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	for _, want := range []string{"TRACE SUMMARY", "walk.run", "RUN 1:", "wait ratio", "straggler attribution", "critical path"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
}

// commTrace carries pairs matrices (matrix capture on) with a recovery
// phase superstep.
const commTrace = `{"ts":"2026-08-06T10:00:00Z","type":"event","name":"cluster.superstep","attrs":{"iteration":0,"machines":2,"time_us":100,"compute":[50,40],"comm":[20,10],"waiting":[0,10],"steps":[0,0],"edges":[10,10],"vertices":[2,2],"messages":[3,1],"pairs":[[0,3],[1,0]]}}
{"ts":"2026-08-06T10:00:00.0001Z","type":"event","name":"cluster.superstep","attrs":{"iteration":1,"machines":2,"time_us":100,"compute":[10,0],"comm":[0,0],"waiting":[0,10],"steps":[0,0],"edges":[0,0],"vertices":[0,0],"messages":[5,0],"pairs":[[0,5],[0,0]],"phase":"restream"}}
`

// commAudit is a minimal partition trace: its audit.final event carries the
// cut ratio to reconcile against.
const commAudit = `{"ts":"2026-08-06T09:00:00Z","type":"event","name":"audit.final","attrs":{"k":2,"v":[2,2],"e":[10,10],"v_bias":0,"e_bias":0,"cut_ratio":0.25,"refine_moves":0}}
`

func TestCommSubcommand(t *testing.T) {
	path := writeTrace(t, "comm.jsonl", commTrace)
	code, out, errb := runCLI(t, "comm", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	for _, want := range []string{
		"RUN 1: 2 machines, 2 supersteps (1 recovery), 9 cross-machine messages",
		"comm imbalance ratio", "hot pair M0->M1", "src\\dst matrix",
		"per-machine out/in skew", "[restream]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("comm output missing %q:\n%s", want, out)
		}
	}
	// Byte-determinism across reruns — the ISSUE's acceptance criterion.
	_, out2, _ := runCLI(t, "comm", path)
	if out != out2 {
		t.Fatal("comm output not byte-identical across reruns")
	}
}

func TestCommAuditReconciliation(t *testing.T) {
	path := writeTrace(t, "comm.jsonl", commTrace)
	auditPath := writeTrace(t, "audit.jsonl", commAudit)
	code, out, errb := runCLI(t, "comm", "-audit", auditPath, path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	for _, want := range []string{"reconciliation vs partitioner", "observed cut share", "predicted cut ratio 0.2500"} {
		if !strings.Contains(out, want) {
			t.Errorf("comm -audit output missing %q:\n%s", want, out)
		}
	}
}

func TestCommNoMatrices(t *testing.T) {
	// A valid trace without pairs attrs (capture off): informative, exit 0.
	path := writeTrace(t, "plain.jsonl", sampleTrace)
	code, out, errb := runCLI(t, "comm", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "matrix capture was off") {
		t.Fatalf("comm output:\n%s", out)
	}
}

func TestCommRejectsInconsistentMatrix(t *testing.T) {
	// Row sum 3 disagrees with messages[0]=9: corrupted instrumentation
	// must be a hard error, not a report.
	bad := `{"ts":"2026-08-06T10:00:00Z","type":"event","name":"cluster.superstep","attrs":{"iteration":0,"machines":2,"time_us":1,"compute":[1,1],"comm":[1,1],"waiting":[0,0],"steps":[0,0],"edges":[1,1],"vertices":[1,1],"messages":[9,0],"pairs":[[0,3],[0,0]]}}` + "\n"
	path := writeTrace(t, "bad.jsonl", bad)
	code, _, stderr := runCLI(t, "comm", path)
	if code != 1 || !strings.Contains(stderr, "row sum") {
		t.Fatalf("exit %d, stderr %q; want 1 with row-sum diagnostic", code, stderr)
	}
}

func TestBadInvocations(t *testing.T) {
	if code, _, _ := runCLI(t); code != 2 {
		t.Errorf("no args exit = %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "bogus"); code != 2 {
		t.Errorf("unknown subcommand exit = %d, want 2", code)
	}
	if code, _, _ := runCLI(t, "report"); code != 2 {
		t.Errorf("report with no file exit = %d, want 2", code)
	}
	if code, _, stderr := runCLI(t, "report", "/nonexistent/trace.jsonl"); code != 1 || stderr == "" {
		t.Errorf("missing file exit = %d, want 1 with stderr", code)
	}
	// A subcommand accepts exactly the flags on its usage line: report has
	// no row cap to raise, and no subcommand writes a page.
	path := writeTrace(t, "a.jsonl", sampleTrace)
	rejected := [][]string{{"report", "-supersteps", "3", path}}
	for _, cmd := range commands {
		args := append([]string{cmd.name, "-html", filepath.Join(t.TempDir(), "out.html")}, cmd.args...)
		rejected = append(rejected, args)
	}
	for _, args := range rejected {
		if code, out, stderr := runCLI(t, args...); code != 2 || out != "" || !strings.Contains(stderr, "flag provided but not defined: "+args[1]) {
			t.Errorf("run(%q) = %d, want 2 with a flag diagnostic; stdout %q, stderr %q", args, code, out, stderr)
		}
	}
	// -version picks the assignment version of -assign's attribution;
	// alone it would be ignored.
	reqs := writeTrace(t, "reqs.jsonl", sampleReqlog)
	if code, out, stderr := runCLI(t, "serve", "-version", "7", reqs); code != 2 || out != "" || !strings.Contains(stderr, "-version attributes an -assign file") {
		t.Errorf("serve -version without -assign = %d, want 2 with a diagnostic; stdout %q, stderr %q", code, out, stderr)
	}
	_, _, stderr := runCLI(t)
	if n := strings.Count(stderr, "\n  tracestat "); n != 6 {
		t.Errorf("usage lists %d subcommands, want 6:\n%s", n, stderr)
	}
	for _, line := range []string{
		"  tracestat report trace.jsonl\n",
		"  tracestat comm [-audit audit.jsonl] trace.jsonl\n",
		"  tracestat serve [-assign parts.txt] [-gate gate.json] [-version n] reqlog.jsonl\n",
		"  tracestat explain <vertexID> audit.jsonl\n",
		"  tracestat timeline audit.jsonl\n",
	} {
		if !strings.Contains(stderr, line) {
			t.Errorf("usage lacks %q:\n%s", line, stderr)
		}
	}
}

// goldenDir holds every subcommand's stdout, recorded with the binaries
// from before the audit views became tracestat subcommands and every
// subcommand ran through one driver.
const goldenDir = "testdata"

func TestGoldenOutputs(t *testing.T) {
	const (
		sample = "../../internal/traceview/testdata/sample.jsonl"
		comm   = "../../internal/commview/testdata/crash5_restream.trace.jsonl"
		res    = "../../internal/traceview/testdata/parent_pr15.jsonl"
		audit  = goldenDir + "/audit.jsonl" // a BPart run's audit.* events
		// Prefixes of comm's trace and of audit.jsonl (thinned decisions),
		// each ending in half a line.
		tornTrace = goldenDir + "/trace_torn.jsonl"
		tornAudit = goldenDir + "/audit_torn.jsonl"
	)
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"report", []string{"report", sample}, 0},
		// The straggler and critical-path sections of a recovered run.
		{"report_crash5", []string{"report", comm}, 0},
		{"comm", []string{"comm", "-audit", audit, comm}, 0},
		// The span table's alloc/GC columns, on a resource log recorded
		// before the deltas rode on spans alone: its superstep laps are
		// events, so no row.
		{"report_res", []string{"report", res}, 0},
		{"serve", []string{"serve", "-assign", goldenDir + "/parts.txt",
			"-gate", goldenDir + "/gate.json", goldenDir + "/reqs.jsonl"}, 0},
		{"explain", []string{"explain", "0", audit}, 0},
		{"timeline", []string{"timeline", audit}, 0},
		{"combine", []string{"combine", audit}, 0},
		// Each family's torn copy ends mid-record, so every reader's
		// truncation banner is pinned too.
		{"report_torn", []string{"report", tornTrace}, 0},
		{"comm_torn", []string{"comm", "-audit", tornAudit, tornTrace}, 0},
		{"report_res_torn", []string{"report", goldenDir + "/resources_torn.jsonl"}, 0},
		{"serve_torn", []string{"serve", "-assign", goldenDir + "/parts.txt",
			"-gate", goldenDir + "/gate.json", goldenDir + "/reqs_torn.jsonl"}, 0},
		{"explain_torn", []string{"explain", "0", tornAudit}, 0},
		{"timeline_torn", []string{"timeline", tornAudit}, 0},
		{"combine_torn", []string{"combine", tornAudit}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, out, errb := runCLI(t, tc.args...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d; stderr: %s", code, tc.code, errb)
			}
			checkGolden(t, tc.name+".stdout", []byte(out))
		})
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from its golden:\n got:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestSubcommands(t *testing.T) {
	// Stream position 0 of layer 1 is always sampled, so vertex 0 is
	// explainable.
	path := goldenDir + "/audit.jsonl"
	var out, errb bytes.Buffer
	if code := run([]string{"explain", "0", path}, &out, &errb); code != 0 {
		t.Fatalf("explain exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "<- chosen") {
		t.Fatalf("explain output lacks the chosen marker:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"timeline", path}, &out, &errb); code != 0 {
		t.Fatalf("timeline exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "cut_ratio") {
		t.Fatalf("timeline output lacks the window table:\n%s", out.String())
	}

	out.Reset()
	if code := run([]string{"combine", path}, &out, &errb); code != 0 {
		t.Fatalf("combine exited %d: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "FROZEN as part") {
		t.Fatalf("combine output lacks freeze outcomes:\n%s", out.String())
	}
}

func TestErrorPaths(t *testing.T) {
	path := goldenDir + "/audit.jsonl"
	var out, errb bytes.Buffer
	cases := []struct {
		args []string
		code int
	}{
		{nil, 2},                                    // no subcommand
		{[]string{"bogus"}, 2},                      // unknown subcommand
		{[]string{"explain", "7"}, 2},               // missing log path
		{[]string{"explain", "x", path}, 1},         // bad vertex ID
		{[]string{"timeline", "/no/such.jsonl"}, 1}, // unreadable log
		{[]string{"combine"}, 2},                    // missing log path
	}
	for _, tc := range cases {
		out.Reset()
		errb.Reset()
		if code := run(tc.args, &out, &errb); code != tc.code {
			t.Errorf("run(%q) = %d, want %d (stderr: %s)", tc.args, code, tc.code, errb.String())
		}
	}
	// An unsampled vertex (the fixture's hubs are its lowest IDs) states
	// the fixed sampling rule the header recorded.
	errb.Reset()
	if code := run([]string{"explain", "1999", path}, &out, &errb); code != 1 {
		t.Fatalf("explain of an unsampled vertex exited %d", code)
	}
	const want = "tracestat: partaudit: vertex 1999 has no sampled decisions " +
		"(sampled: every 64th stream position plus the 16 top-out-degree hubs)\n"
	if errb.String() != want {
		t.Fatalf("unsampled-vertex diagnostic:\n got %q\nwant %q", errb.String(), want)
	}
}

// A file that is not an audit log at all (every line garbage) must be a
// hard failure with a single-line diagnostic — not empty output with
// exit 0.
func TestCorruptLogFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.jsonl")
	if err := os.WriteFile(path, []byte("this is not an audit log\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errb bytes.Buffer
	for _, args := range [][]string{
		{"explain", "7", path},
		{"timeline", path},
		{"combine", path},
	} {
		out.Reset()
		errb.Reset()
		if code := run(args, &out, &errb); code != 1 {
			t.Errorf("run(%q) on garbage = %d, want 1", args, code)
		}
		diag := strings.TrimRight(errb.String(), "\n")
		if diag == "" || strings.Contains(diag, "\n") {
			t.Errorf("run(%q) diagnostic not a single line: %q", args, errb.String())
		}
		if !strings.Contains(diag, "line 1") {
			t.Errorf("run(%q) diagnostic does not locate the damage: %q", args, diag)
		}
	}
}

// A file that is not a trace at all (every line garbage) must be a hard
// failure with a single-line diagnostic — not an empty report with exit 0.
func TestCorruptTraceFails(t *testing.T) {
	path := writeTrace(t, "garbage.jsonl", "this is not a trace\n")
	for _, sub := range []string{"report", "comm"} {
		code, _, stderr := runCLI(t, sub, path)
		if code != 1 {
			t.Errorf("%s on garbage exit = %d, want 1", sub, code)
		}
		diag := strings.TrimRight(stderr, "\n")
		if diag == "" || strings.Contains(diag, "\n") {
			t.Errorf("%s diagnostic not a single line: %q", sub, stderr)
		}
		if !strings.Contains(diag, "line 1") {
			t.Errorf("%s diagnostic does not locate the damage: %q", sub, diag)
		}
	}
}

func TestTruncatedTraceStillReports(t *testing.T) {
	path := writeTrace(t, "torn.jsonl", sampleTrace+`{"ts":"2026-08-06T10:00:01Z","type":"ev`)
	code, out, errb := runCLI(t, "report", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "WARNING: final line torn") {
		t.Fatalf("no truncation warning:\n%s", out)
	}
}

// sampleResources is a resource log: a trace whose records carry res_*
// attrs. Its superstep event is a lap, a scalar-only record with its own
// res_wall_us, as logs recorded before the deltas rode on spans hold.
const sampleResources = `{"ts":"2026-08-06T10:00:00Z","type":"span","name":"partition.stream","dur_us":2500,"attrs":{"k":8,"res_allocs":100,"res_alloc_bytes":8192,"res_heap_bytes":4096,"res_gc_cycles":1,"res_gc_pause_us":10,"res_goroutines":2}}
{"ts":"2026-08-06T10:00:01Z","type":"event","name":"cluster.superstep","attrs":{"iteration":0,"machines":2,"time_us":5,"res_wall_us":40,"res_allocs":1,"res_alloc_bytes":64,"res_heap_bytes":4096,"res_gc_cycles":0,"res_gc_pause_us":0,"res_goroutines":2}}
{"ts":"2026-08-06T10:00:02Z","type":"span","name":"walk.run","dur_us":1000,"attrs":{"kind":"SimpleWalk","res_allocs":10,"res_alloc_bytes":512,"res_heap_bytes":4096,"res_gc_cycles":0,"res_gc_pause_us":0,"res_goroutines":3}}
{"ts":"2026-08-06T10:00:03Z","type":"span","name":"walk.run","dur_us":600,"attrs":{"kind":"PPR","res_allocs":10,"res_alloc_bytes":512,"res_heap_bytes":4096,"res_gc_cycles":0,"res_gc_pause_us":0,"res_goroutines":4}}
`

// Spans that carry res_* deltas add the alloc, allocs and gc columns to
// the span table; the superstep event's lap is no row.
func TestReportResourceColumns(t *testing.T) {
	path := writeTrace(t, "res.jsonl", sampleResources)
	code, out, errb := runCLI(t, "report", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	for _, want := range []string{
		"  name               count       total         max       alloc    allocs            gc\n",
		"  partition.stream       1       2.5ms       2.5ms      8.0KiB       100    1 (10.0us)\n",
		"  walk.run               2       1.6ms       1.0ms      1.0KiB        20     0 (0.0us)\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "\n  cluster.superstep ") {
		t.Errorf("an event is a row of the span table:\n%s", out)
	}
}

// A resource log is a trace, and a trace with no res_* attr has no
// resource columns: only a schema-v1 resource log (written before the two
// formats became one) is refused — with a message that says what to do,
// not `bad ts ""` — and so is a res_* attr the trace writer never writes.
func TestResourceFileIsATrace(t *testing.T) {
	res := writeTrace(t, "res.jsonl", sampleResources)
	for _, sub := range []string{"report", "comm"} {
		if code, out, errb := runCLI(t, sub, res); code != 0 || out == "" {
			t.Errorf("%s on a resource log: exit %d, stderr %q", sub, code, errb)
		}
	}
	if _, out, _ := runCLI(t, "report", res); !strings.Contains(out, "walk.run") || !strings.Contains(out, "No cluster.superstep records") {
		t.Errorf("report on a resource log:\n%s", out)
	}
	// A committed trace recorded before spans carried res_* attrs.
	const plain = "../../internal/traceview/testdata/sample.jsonl"
	if code, out, errb := runCLI(t, "report", plain); code != 0 || !strings.Contains(out, "  name               count       total         max\n") {
		t.Errorf("report on a trace with no res_* attr: exit %d, stdout %q, stderr %q", code, out, errb)
	}
	v1 := writeTrace(t, "v1.jsonl", `{"v":1,"type":"resource","seq":0,"kind":"span","phase":"partition.stream","wall_us":2500,"allocs":100,"alloc_bytes":8192,"heap_bytes":4096,"gc_cycles":1,"gc_pause_us":10,"goroutines":2,"attrs":{"k":8}}`+"\n")
	for _, sub := range []string{"report", "comm"} {
		code, _, errb := runCLI(t, sub, v1)
		if code != 1 || !strings.Contains(errb, "line 1: schema-v1 resource log") || !strings.Contains(errb, "re-record with -trace") {
			t.Errorf("%s on a schema-v1 log: exit %d, stderr %q", sub, code, errb)
		}
	}
	bad := writeTrace(t, "bad.jsonl", `{"ts":"2026-08-06T10:00:00Z","type":"span","name":"a","dur_us":1,"attrs":{"res_allocs":-1}}`+"\n")
	if code, out, errb := runCLI(t, "report", bad); code != 1 || out != "" || !strings.Contains(errb, "res_allocs") {
		t.Errorf("report on a negative count: exit %d, stdout %q, stderr %q", code, out, errb)
	}
}

// A resource log damaged before its final line is no report: exit 1, no
// stdout, and a diagnostic that locates the damage. report without a
// file is a usage error.
func TestResourcesCorruptFails(t *testing.T) {
	lines := strings.SplitAfter(sampleResources, "\n")
	path := writeTrace(t, "garbage.jsonl", lines[0]+"not a resource log\n"+lines[2])
	code, out, stderr := runCLI(t, "report", path)
	if code != 1 || out != "" {
		t.Errorf("report on a damaged resource log: exit %d, stdout %q; want 1 and nothing", code, out)
	}
	if !strings.Contains(stderr, "line 2") {
		t.Errorf("diagnostic does not locate the damage: %q", stderr)
	}
	if code, _, _ := runCLI(t, "report"); code != 2 {
		t.Errorf("report without a file exit = %d, want 2", code)
	}
}

const sampleReqlog = `{"v":1,"type":"request","seq":1,"endpoint":"lookup","vertex":0,"part":0,"version":1,"status":200,"latency_us":100}
{"v":1,"type":"request","seq":2,"endpoint":"lookup","vertex":1,"part":0,"version":1,"status":200,"latency_us":120}
{"v":1,"type":"request","seq":3,"endpoint":"walk","vertex":2,"part":1,"version":1,"status":200,"latency_us":900}
{"v":1,"type":"request","seq":4,"endpoint":"khop","vertex":3,"part":1,"version":1,"status":200,"latency_us":400}
`

const sampleAssign = `# bpart assignment k=2 n=4
0
0
1
1
`

func TestServeSubcommand(t *testing.T) {
	path := writeTrace(t, "reqs.jsonl", sampleReqlog)
	code, out, errb := runCLI(t, "serve", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	for _, want := range []string{"Serving report: 4 requests", "Per endpoint:", "lookup", "khop", "walk", "Per part:", "Versions:", "v1"} {
		if !strings.Contains(out, want) {
			t.Errorf("serve output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "Tail attribution") {
		t.Error("attribution printed without -assign")
	}
}

func TestServeAttribution(t *testing.T) {
	path := writeTrace(t, "reqs.jsonl", sampleReqlog)
	assign := writeTrace(t, "parts.txt", sampleAssign)
	code, out, errb := runCLI(t, "serve", "-assign", assign, path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "Tail attribution") || !strings.Contains(out, "pressure") {
		t.Fatalf("attribution missing:\n%s", out)
	}
	// A version the log never served attributes nothing: exit 1, naming
	// the versions it holds.
	code, out, errb = runCLI(t, "serve", "-assign", assign, "-version", "7", path)
	if code != 1 || out != "" || !strings.Contains(errb, "no record carries assignment version 7; the log holds versions [1]") {
		t.Fatalf("absent version: exit %d, stdout %q, stderr %q", code, out, errb)
	}
}

func TestServeAttributionRejectsMisroutedLog(t *testing.T) {
	// The log routes vertex 0 to part 0; this assignment disagrees.
	path := writeTrace(t, "reqs.jsonl", sampleReqlog)
	assign := writeTrace(t, "parts.txt", "# bpart assignment k=2 n=4\n1\n1\n0\n0\n")
	code, _, errb := runCLI(t, "serve", "-assign", assign, path)
	if code != 1 || !strings.Contains(errb, "assignment says") {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
}

func TestServeGate(t *testing.T) {
	path := writeTrace(t, "reqs.jsonl", sampleReqlog)
	pass := writeTrace(t, "gate.json", `{"v":1,"max_p99_us":{"lookup":100000,"walk":100000}}`)
	code, out, errb := runCLI(t, "serve", "-gate", pass, path)
	if code != 0 || !strings.Contains(out, "serving gate: ok") {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	tight := writeTrace(t, "tight.json", `{"v":1,"max_p99_us":{"walk":1}}`)
	code, _, errb = runCLI(t, "serve", "-gate", tight, path)
	if code != 1 || !strings.Contains(errb, "exceeds gate") {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
}

func TestServeBadInputs(t *testing.T) {
	if code, _, _ := runCLI(t, "serve"); code != 2 {
		t.Fatalf("no args exit = %d", code)
	}
	garbage := writeTrace(t, "bad.jsonl", "not a reqlog\n")
	if code, _, _ := runCLI(t, "serve", garbage); code != 1 {
		t.Fatalf("garbage log exit = %d", code)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bpart"
)

// Two bench runs with identical seeds and flags must write byte-identical
// artifacts: the BENCH JSON (wall clocks stripped by -deterministic) and
// the decision audit log (which never contains timestamps).
func TestBenchDeterministicArtifacts(t *testing.T) {
	dir := t.TempDir()
	files := func(tag string) (string, string) {
		return filepath.Join(dir, tag+".json"), filepath.Join(dir, tag+".jsonl")
	}
	runOnce := func(tag string) ([]byte, []byte) {
		t.Helper()
		jsonPath, auditPath := files(tag)
		var stdout, stderr bytes.Buffer
		code := run([]string{
			"-scale", "0.02", "-id", "Fig 3",
			"-json", jsonPath, "-audit", auditPath, "-deterministic",
		}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("bench exited %d: %s", code, stderr.String())
		}
		j, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		a, err := os.ReadFile(auditPath)
		if err != nil {
			t.Fatal(err)
		}
		return j, a
	}
	j1, a1 := runOnce("one")
	j2, a2 := runOnce("two")
	if !bytes.Equal(j1, j2) {
		t.Fatalf("BENCH artifacts differ across identical runs:\n--- one ---\n%.400s\n--- two ---\n%.400s", j1, j2)
	}
	if !bytes.Equal(a1, a2) {
		t.Fatal("audit logs differ across identical runs")
	}
	// -deterministic means no live wall clock leaks into the artifact.
	var art struct {
		Experiments []struct {
			WallSeconds float64 `json:"wall_seconds"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(j1, &art); err != nil {
		t.Fatal(err)
	}
	if len(art.Experiments) == 0 {
		t.Fatal("artifact recorded no experiments")
	}
	for _, e := range art.Experiments {
		if e.WallSeconds != 0 {
			t.Fatalf("wall clock survived -deterministic: %+v", art.Experiments)
		}
	}
}

// -fault injects the schedule: the artifact grows a recovery section and
// the trace carries fault events.
func TestBenchFaultFlag(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "bench.json")
	tracePath := filepath.Join(dir, "trace.jsonl")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-scale", "0.02", "-id", "Fault Recovery",
		"-fault", "../../internal/fault/testdata/crash5.json",
		"-json", jsonPath, "-trace", tracePath, "-deterministic",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("bench exited %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var art struct {
		Recovery []struct {
			Scheme  string `json:"scheme"`
			Crashes int    `json:"crashes"`
		} `json:"recovery"`
	}
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatal(err)
	}
	if len(art.Recovery) == 0 {
		t.Fatalf("no recovery section in artifact:\n%.400s", data)
	}
	for _, r := range art.Recovery {
		if r.Crashes != 1 {
			t.Fatalf("recovery row %+v, want 1 crash", r)
		}
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fault.crash", "fault.checkpoint", "fault.run"} {
		if !strings.Contains(string(trace), want) {
			t.Fatalf("trace missing %s events", want)
		}
	}
	if !strings.Contains(stdout.String(), "Fault Recovery") {
		t.Fatalf("stdout missing the experiment table:\n%.400s", stdout.String())
	}
}

// -checkpoint-every alone enables checkpointing with an empty schedule —
// pure checkpoint overhead, no crashes.
func TestBenchCheckpointOnly(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "bench.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-scale", "0.02", "-id", "Fig 3",
		"-checkpoint-every", "2", "-json", jsonPath, "-deterministic",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("bench exited %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var art struct {
		Recovery []struct {
			Crashes     int `json:"crashes"`
			Checkpoints int `json:"checkpoints"`
		} `json:"recovery"`
	}
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatal(err)
	}
	if len(art.Recovery) == 0 {
		t.Fatal("no recovery section despite -checkpoint-every")
	}
	for _, r := range art.Recovery {
		if r.Crashes != 0 || r.Checkpoints == 0 {
			t.Fatalf("checkpoint-only row = %+v", r)
		}
	}
}

// A missing or corrupt fault spec is a startup error, not a silent
// fault-free run.
func TestBenchBadFaultSpec(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fault", filepath.Join(t.TempDir(), "nope.json")}, &stdout, &stderr); code != 1 {
		t.Fatalf("missing spec exited %d", code)
	}
	if !strings.Contains(stderr.String(), "bench:") {
		t.Fatalf("no diagnostic on stderr: %q", stderr.String())
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	if code := run([]string{"-fault", bad}, &stdout, &stderr); code != 1 {
		t.Fatalf("corrupt spec exited %d", code)
	}
}

func TestBenchList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, want := range []string{"Fig 13", "Fault Recovery"} {
		if !strings.Contains(stdout.String(), want) {
			t.Fatalf("-list missing %q:\n%s", want, stdout.String())
		}
	}
}

// normalizeTrace blanks the two host-dependent fields every trace line
// carries (the wall timestamp and span duration), leaving the deterministic
// content — record names, order, and every simulated attribute — intact.
func normalizeTrace(t *testing.T, raw []byte) string {
	t.Helper()
	var out strings.Builder
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var rec map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		delete(rec, "ts")
		delete(rec, "dur_us")
		norm, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(norm)
		out.WriteByte('\n')
	}
	return out.String()
}

// The resource probe is observation-only: a -resources run's deterministic
// artifacts (trace modulo wall clocks, audit, and the BENCH JSON) must be
// identical to a run without the flag.
func TestBenchResourcesDisabledPathIdentical(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(tag string, extra ...string) (jsonB, traceB, auditB []byte) {
		t.Helper()
		jsonPath := filepath.Join(dir, tag+".json")
		tracePath := filepath.Join(dir, tag+"_trace.jsonl")
		auditPath := filepath.Join(dir, tag+"_audit.jsonl")
		args := append([]string{
			"-scale", "0.02", "-id", "Fig 3",
			"-json", jsonPath, "-trace", tracePath, "-audit", auditPath, "-deterministic",
		}, extra...)
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("bench exited %d: %s", code, stderr.String())
		}
		for _, p := range []struct {
			path string
			out  *[]byte
		}{{jsonPath, &jsonB}, {tracePath, &traceB}, {auditPath, &auditB}} {
			b, err := os.ReadFile(p.path)
			if err != nil {
				t.Fatal(err)
			}
			*p.out = b
		}
		return
	}
	plainJSON, plainTrace, plainAudit := runOnce("plain")
	resJSON, resTrace, resAudit := runOnce("probed",
		"-resources", filepath.Join(dir, "res.jsonl"), "-widths", "1,2")
	if nt1, nt2 := normalizeTrace(t, plainTrace), normalizeTrace(t, resTrace); nt1 != nt2 {
		t.Fatal("-resources perturbed the trace's deterministic content")
	}
	if !bytes.Equal(plainAudit, resAudit) {
		t.Fatal("-resources perturbed the audit log")
	}
	if !bytes.Equal(plainJSON, resJSON) {
		t.Fatalf("-resources perturbed the BENCH artifact:\n%s\nvs\n%s", plainJSON, resJSON)
	}
}

// -resources writes a parseable resource log whose scaling spans — emitted
// by the Parallel Speedup sweep — cover the requested -widths ladder.
func TestBenchResourcesFlag(t *testing.T) {
	resPath := filepath.Join(t.TempDir(), "res.jsonl")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-scale", "0.02", "-id", "Parallel Speedup",
		"-resources", resPath, "-widths", "1,2",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("bench exited %d: %s", code, stderr.String())
	}
	l, err := bpart.ReadResourceLogFile(resPath)
	if err != nil {
		t.Fatal(err)
	}
	widths := map[int]bool{}
	experiments := 0
	for _, r := range l.Records {
		switch r.Name {
		case "scaling.replay":
			if w, ok := r.Int("workers"); ok {
				widths[w] = true
			}
		case "bench.experiment":
			experiments++
		}
	}
	if !widths[1] || !widths[2] || len(widths) != 2 {
		t.Fatalf("scaling widths recorded: %v, want {1,2}", widths)
	}
	if experiments != 1 {
		t.Fatalf("got %d bench.experiment records, want 1", experiments)
	}
}

// An unknown -id exits 2 and names the known IDs; it must not print an
// empty run and succeed.
func TestBenchUnknownID(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scale", "0.02", "-id", "Fig 3", "-id", "Fig 99"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown -id exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), `"Fig 99"`) || !strings.Contains(stderr.String(), `"Fault Recovery"`) {
		t.Fatalf("diagnostic does not name the ID and the known IDs: %s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("unknown -id still ran:\n%s", stdout.String())
	}
}

func TestBenchBadWidths(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-widths", "1,zero"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad -widths exited %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "-widths") {
		t.Fatalf("no diagnostic: %s", stderr.String())
	}
}

// An early exit after the logs are open (here the -widths parse error)
// must still close them: the deferred close runs on every return. A leaked
// handle shows as a /proc/self/fd entry still pointing into the test's
// directory.
func TestBenchEarlyExitClosesLogs(t *testing.T) {
	dir := t.TempDir()
	tracePath, resPath := filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "r.jsonl")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-trace", tracePath, "-resources", resPath, "-widths", "1,zero"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("bad -widths exited %d, want 2", code)
	}
	if l, err := bpart.ReadResourceLogFile(resPath); err != nil || l.Truncated || len(l.Records) != 0 {
		t.Fatalf("resource log after early exit: %+v, %v", l, err)
	}
	if _, err := os.Stat(tracePath); err != nil {
		t.Fatal(err)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc/self/fd on this platform:", err)
	}
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir) {
			t.Errorf("fd %s still open on %s after run returned", fd.Name(), target)
		}
	}
}

// A log that cannot be flushed (a full disk) fails the run, and no
// "# wrote" line claims otherwise.
func TestBenchFullDiskFails(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform:", err)
	}
	for _, flag := range []string{"-trace", "-resources", "-audit"} {
		t.Run(flag, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run([]string{"-scale", "0.02", "-id", "Table 1", flag, "/dev/full"}, &stdout, &stderr); code != 1 {
				t.Fatalf("bench %s /dev/full exited %d, want 1; stderr %q", flag, code, stderr.String())
			}
			if !strings.Contains(stderr.String(), "no space left on device") {
				t.Errorf("stderr does not report the failed flush: %q", stderr.String())
			}
			if strings.Contains(stdout.String(), "/dev/full") {
				t.Errorf("stdout claims the log was written:\n%s", stdout.String())
			}
		})
	}
}

// The -workers flag changes scheduling only: a deterministic artifact
// written at any worker-pool size is byte-identical to the sequential
// one, and the artifact's parallel section (its own fixed ladder) proves
// every width matched the 1-worker run.
func TestBenchParallelWorkersByteIdentical(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(workers string) []byte {
		t.Helper()
		jsonPath := filepath.Join(dir, "bench_w"+workers+".json")
		var stdout, stderr bytes.Buffer
		code := run([]string{
			"-scale", "0.02", "-id", "Fig 3",
			"-json", jsonPath, "-deterministic", "-workers", workers,
		}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("bench -workers %s exited %d: %s", workers, code, stderr.String())
		}
		data, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	ref := runOnce("1")
	for _, w := range []string{"2", "4"} {
		if got := runOnce(w); !bytes.Equal(got, ref) {
			t.Fatalf("-workers %s artifact differs from -workers 1:\n--- 1 ---\n%.400s\n--- %s ---\n%.400s", w, ref, w, got)
		}
	}
	var art struct {
		Parallel []struct {
			Graph     string  `json:"graph"`
			Engine    string  `json:"engine"`
			Workers   int     `json:"workers"`
			WallUS    float64 `json:"wall_us"`
			Speedup   float64 `json:"speedup"`
			Identical bool    `json:"identical"`
		} `json:"parallel"`
	}
	if err := json.Unmarshal(ref, &art); err != nil {
		t.Fatal(err)
	}
	if len(art.Parallel) != 12 { // 2 schemes × 2 engines × widths {1,2,4}
		t.Fatalf("parallel section has %d rows, want 12", len(art.Parallel))
	}
	for _, p := range art.Parallel {
		if !p.Identical {
			t.Fatalf("row %+v failed its bit-identity check", p)
		}
		if p.WallUS != 0 || p.Speedup != 0 {
			t.Fatalf("wall clock survived -deterministic: %+v", p)
		}
	}
}

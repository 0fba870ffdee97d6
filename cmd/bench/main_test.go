package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bpart/internal/traceview"
)

// Two bench runs with identical seeds and flags must write byte-identical
// BENCH artifacts (wall clocks stripped by -deterministic).
func TestBenchDeterministicArtifacts(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(tag string) []byte {
		t.Helper()
		jsonPath := filepath.Join(dir, tag+".json")
		var stdout, stderr bytes.Buffer
		code := run([]string{
			"-scale", "0.02", "-id", "Fig 3",
			"-json", jsonPath, "-deterministic",
		}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("bench exited %d: %s", code, stderr.String())
		}
		j, err := os.ReadFile(jsonPath)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	j1 := runOnce("one")
	j2 := runOnce("two")
	if !bytes.Equal(j1, j2) {
		t.Fatalf("BENCH artifacts differ across identical runs:\n--- one ---\n%.400s\n--- two ---\n%.400s", j1, j2)
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

// A schedule with no events enables checkpointing at its interval — pure
// checkpoint overhead, no crashes.
func TestBenchCheckpointOnly(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "bench.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-scale", "0.02", "-id", "Fig 3",
		"-fault", "../../internal/fault/testdata/checkpoint2.json", "-json", jsonPath, "-deterministic",
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
		t.Fatal("no recovery section despite checkpoint2.json")
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

// normalizeTrace blanks the host-dependent fields of a trace: every line's
// wall timestamp, and a span's duration and res_* resource deltas. What is
// left is the deterministic content — record names, order, and every
// simulated attribute.
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
		if raw, ok := rec["attrs"]; ok {
			var attrs map[string]json.RawMessage
			if err := json.Unmarshal(raw, &attrs); err != nil {
				t.Fatal(err)
			}
			for k := range attrs {
				if strings.HasPrefix(k, "res_") {
					delete(attrs, k)
				}
			}
			var err error
			if rec["attrs"], err = json.Marshal(attrs); err != nil {
				t.Fatal(err)
			}
		}
		norm, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(norm)
		out.WriteByte('\n')
	}
	return out.String()
}

// Resource capture is observation-only: a traced run, whose spans carry
// res_* attrs, writes the BENCH artifact an untraced run writes, and two
// traced runs' traces differ only in their host-dependent fields.
func TestBenchResourcesDisabledPathIdentical(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(tag string, traced bool) (jsonB, traceB []byte) {
		t.Helper()
		jsonPath := filepath.Join(dir, tag+".json")
		tracePath := filepath.Join(dir, tag+"_trace.jsonl")
		args := []string{"-scale", "0.02", "-id", "Fig 3", "-json", jsonPath, "-deterministic"}
		if traced {
			args = append(args, "-trace", tracePath)
		}
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("bench exited %d: %s", code, stderr.String())
		}
		var err error
		if jsonB, err = os.ReadFile(jsonPath); err != nil {
			t.Fatal(err)
		}
		if traced {
			if traceB, err = os.ReadFile(tracePath); err != nil {
				t.Fatal(err)
			}
		}
		return jsonB, traceB
	}
	plainJSON, _ := runOnce("plain", false)
	oneJSON, oneTrace := runOnce("one", true)
	_, twoTrace := runOnce("two", true)
	if !bytes.Equal(plainJSON, oneJSON) {
		t.Fatalf("-trace perturbed the BENCH artifact:\n%s\nvs\n%s", plainJSON, oneJSON)
	}
	if !strings.Contains(string(oneTrace), `"res_allocs"`) {
		t.Fatal("the trace's spans carry no resource deltas")
	}
	if nt1, nt2 := normalizeTrace(t, oneTrace), normalizeTrace(t, twoTrace); nt1 != nt2 {
		t.Fatal("two traced runs differ beyond ts, dur_us and res_*")
	}
}

// -trace records each span's resource deltas: the bench.experiment span
// carries them, and the Parallel Speedup sweep's engines run quiet, so
// that span is all the trace holds.
func TestBenchTraceCarriesResources(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "t.jsonl")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-scale", "0.02", "-id", "Parallel Speedup",
		"-trace", tracePath, "-widths", "1,2",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("bench exited %d: %s", code, stderr.String())
	}
	l, err := traceview.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Records) != 1 || l.Records[0].Name != "bench.experiment" {
		t.Fatalf("trace holds %+v, want one bench.experiment span", l.Records)
	}
	if id, _ := l.Records[0].Str("id"); id != "Parallel Speedup" {
		t.Fatalf("bench.experiment id %q", id)
	}
	if n, ok := l.Records[0].Int("res_allocs"); !ok || n < 1 {
		t.Fatalf("bench.experiment span without resource deltas: %+v", l.Records[0])
	}
}

// Without -widths the Parallel Speedup ladder is the harness's {1, 2, 4}
// on every host, traced with resource deltas or not, and every row is
// bit-identical to the 1-worker run.
func TestBenchDefaultWidthsIgnoreResources(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-scale", "0.02", "-id", "Parallel Speedup",
		"-trace", filepath.Join(dir, "t.jsonl"), "-csv", dir,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("bench exited %d: %s", code, stderr.String())
	}
	f, err := os.Open(filepath.Join(dir, "parallel_speedup.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	col := map[string]int{}
	for i, h := range rows[0] {
		col[h] = i
	}
	widths := map[string]bool{}
	for _, r := range rows[1:] {
		widths[r[col["workers"]]] = true
		if r[col["identical"]] != "true" {
			t.Fatalf("row %v failed its bit-identity check", r)
		}
	}
	if len(widths) != 3 || !widths["1"] || !widths["2"] || !widths["4"] {
		t.Fatalf("worker ladder %v, want {1, 2, 4}", widths)
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

// An early exit after the trace is open (here the -widths parse error)
// must still close it: the deferred close runs on every return. A leaked
// handle shows as a /proc/self/fd entry still pointing into the test's
// directory.
func TestBenchEarlyExitClosesLogs(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.jsonl")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-trace", tracePath, "-widths", "1,zero"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("bad -widths exited %d, want 2", code)
	}
	if l, err := traceview.ReadFile(tracePath); err != nil || l.Truncated || len(l.Records) != 0 {
		t.Fatalf("trace after early exit: %+v, %v", l, err)
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

// A trace that cannot be flushed (a full disk) fails the run, and no
// "# wrote" line claims otherwise.
func TestBenchFullDiskFails(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform:", err)
	}
	t.Run("-trace", func(t *testing.T) {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-scale", "0.02", "-id", "Table 1", "-trace", "/dev/full"}, &stdout, &stderr); code != 1 {
			t.Fatalf("bench -trace /dev/full exited %d, want 1; stderr %q", code, stderr.String())
		}
		if !strings.Contains(stderr.String(), "no space left on device") {
			t.Errorf("stderr does not report the failed flush: %q", stderr.String())
		}
		if strings.Contains(stdout.String(), "/dev/full") {
			t.Errorf("stdout claims the trace was written:\n%s", stdout.String())
		}
	})
}

// The -workers flag changes scheduling only: a deterministic artifact
// written at any worker-pool size is byte-identical to the sequential
// one.
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
}

// A scale or walker count the harness would silently replace is a usage
// error, raised before any output file is created: the header, the trace
// and the artifact would otherwise record values that never ran.
func TestBenchBadScaleOrWalkers(t *testing.T) {
	for _, bad := range [][]string{
		{"-scale", "-1"}, {"-scale", "0"}, {"-walkers", "-3"}, {"-scale", "-1", "-walkers", "-3"},
	} {
		t.Run(strings.Join(bad, "_"), func(t *testing.T) {
			dir := t.TempDir()
			args := append([]string{
				"-id", "Fig 3", "-json", filepath.Join(dir, "b.json"), "-trace", filepath.Join(dir, "t.jsonl"),
			}, bad...)
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 2 {
				t.Fatalf("bench %v exited %d, want 2", bad, code)
			}
			if !strings.Contains(stderr.String(), "-scale") || !strings.Contains(stderr.String(), "-walkers") {
				t.Fatalf("diagnostic names neither flag: %q", stderr.String())
			}
			if stdout.Len() != 0 {
				t.Fatalf("the run started:\n%s", stdout.String())
			}
			if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
				t.Fatalf("a refused run created files: %v, %v", left, err)
			}
		})
	}
}

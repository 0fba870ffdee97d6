package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"bpart/internal/resview"
	"bpart/internal/traceview"
)

// An error raised after the observability files are open and records were
// emitted must still leave every log flushed: the deferred closes run
// because run returns instead of exiting.
func TestErrorExitKeepsLogs(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	resPath := filepath.Join(dir, "res.jsonl")
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-dataset", "lj-sim", "-scale", "0.02", "-scheme", "BPart", "-k", "4",
		"-trace", tracePath, "-resources", resPath,
		// The partition succeeds and emits its records; writing the
		// assignment into a directory that does not exist then fails.
		"-out", filepath.Join(dir, "missing", "parts.txt"),
	}, &stdout, &stderr)
	if err == nil {
		t.Fatalf("run succeeded writing into a missing directory:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "into 4 parts") {
		t.Fatalf("the error fired before the partition ran:\n%s", stdout.String())
	}

	tr, err := traceview.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Truncated || len(tr.Spans("bpart.partition")) != 1 {
		t.Fatalf("trace lost the partition span: truncated=%v, %d records", tr.Truncated, len(tr.Records))
	}
	al, err := tr.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if al.Header == nil || al.Final == nil {
		t.Fatalf("trace lost audit events: header=%v final=%v", al.Header, al.Final)
	}
	rl, err := traceview.ReadFile(resPath)
	if err != nil {
		t.Fatal(err)
	}
	if rl.Truncated || len(rl.Records) == 0 {
		t.Fatalf("resource log incomplete: truncated=%v, %d records", rl.Truncated, len(rl.Records))
	}
	if stderr.Len() != 0 {
		t.Fatalf("flush diagnostics on a healthy disk: %s", stderr.String())
	}
}

// A log that cannot be flushed (a full disk) fails the run, and no
// "written to" line claims otherwise.
func TestFullDiskFailsRun(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform:", err)
	}
	for _, flag := range []string{"-trace", "-resources"} {
		t.Run(flag, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run([]string{"-dataset", "lj-sim", "-scale", "0.02", "-k", "4", flag, "/dev/full"}, &stdout, &stderr)
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("run = %v, want the failed flush (ENOSPC)", err)
			}
			if !strings.Contains(stdout.String(), "into 4 parts") {
				t.Fatalf("the run failed before partitioning:\n%s", stdout.String())
			}
			if strings.Contains(stdout.String(), "/dev/full") {
				t.Errorf("stdout claims the log was written:\n%s", stdout.String())
			}
		})
	}
}

func TestBadFlagIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &stdout, &stderr); err != errUsage {
		t.Fatalf("run = %v, want errUsage", err)
	}
	if !strings.Contains(stderr.String(), "no-such-flag") {
		t.Fatalf("flag error not reported: %q", stderr.String())
	}
}

// A flag the selected mode would silently ignore is a usage error naming
// the flag, raised before any output file is created.
func TestIgnoredFlagIsUsageError(t *testing.T) {
	dir := t.TempDir()
	spec, err := filepath.Abs(filepath.Join("..", "..", "internal", "fault", "testdata", "crash5.json"))
	if err != nil {
		t.Fatal(err)
	}
	modes := map[string][]string{
		"-list": {"-list"},
		"-eval": {"-eval", filepath.Join(dir, "stored.txt")},
		"-vcut": {"-vcut"},
		"-all":  {"-all"},
	}
	flags := map[string]string{
		"-out": filepath.Join(dir, "o.txt"), "-timeline": filepath.Join(dir, "tl.csv"), "-fault": spec,
	}
	for mode, modeArgs := range modes {
		for name, value := range flags {
			t.Run(mode+" "+name, func(t *testing.T) {
				args := append([]string{"-dataset", "lj-sim", "-scale", "0.02", "-k", "4", name, value}, modeArgs...)
				var stdout, stderr bytes.Buffer
				if err := run(args, &stdout, &stderr); err != errUsage {
					t.Fatalf("run = %v, want errUsage\n%s", err, stdout.String())
				}
				if diag := stderr.String(); !strings.Contains(diag, mode) || !strings.Contains(diag, name) {
					t.Fatalf("diagnostic names neither %s nor %s: %q", mode, name, diag)
				}
				if stdout.Len() != 0 {
					t.Fatalf("the mode ran before the flag was refused:\n%s", stdout.String())
				}
			})
		}
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Fatalf("a refused run left files behind: %v, %v", left, err)
	}
	// Every refused flag is named at once, and the flags a mode does honour
	// still work with it.
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-dataset", "lj-sim", "-scale", "0.02", "-all", "-timeline", "t", "-out", "o"}, &stdout, &stderr); err != errUsage ||
		!strings.Contains(stderr.String(), "-out, -timeline") {
		t.Fatalf("run = %v, stderr %q", err, stderr.String())
	}
	tracePath := filepath.Join(dir, "t.jsonl")
	if err := run([]string{"-dataset", "lj-sim", "-scale", "0.02", "-k", "4", "-vcut", "-trace", tracePath, "-workers", "2"}, &stdout, &stderr); err != nil {
		t.Fatalf("-vcut -trace: %v", err)
	}
	if tr, err := traceview.ReadFile(tracePath); err != nil || len(tr.Spans("vcut.partition")) != 4 {
		t.Fatalf("-vcut -trace wrote %v, %v", tr, err)
	}
}

// One hook, one format, two files: -trace and -resources are two sinks of
// the one Span/Event call each phase makes and both write the trace schema,
// so the resource file is the trace file record for record — same types
// and names in the same order, same scalar attrs — plus the res_* attrs,
// which never enter the trace. And both are observation only: the
// assignment and the timeline are the bytes an unobserved run writes.
func TestTraceAndResourceLogsJoin(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(tag string, extra ...string) (parts, timeline []byte) {
		t.Helper()
		out := filepath.Join(dir, tag+"_parts.txt")
		tl := filepath.Join(dir, tag+"_timeline.csv")
		var stdout, stderr bytes.Buffer
		args := append([]string{
			"-dataset", "twitter-sim", "-scale", "0.05", "-k", "8", "-out", out, "-timeline", tl,
		}, extra...)
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("%s run: %v\n%s", tag, err, stderr.String())
		}
		var err error
		if parts, err = os.ReadFile(out); err != nil {
			t.Fatal(err)
		}
		if timeline, err = os.ReadFile(tl); err != nil {
			t.Fatal(err)
		}
		return parts, timeline
	}
	tracePath, resPath := filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "r.jsonl")
	plainParts, plainTimeline := runOnce("plain")
	obsParts, obsTimeline := runOnce("observed", "-trace", tracePath, "-resources", resPath)
	if !bytes.Equal(plainParts, obsParts) {
		t.Error("-trace/-resources perturbed the assignment")
	}
	if !bytes.Equal(plainTimeline, obsTimeline) {
		t.Error("-trace/-resources perturbed the timeline")
	}

	tr, err := traceview.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := traceview.ReadFile(resPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) == 0 || len(tr.Records) != len(rl.Records) {
		t.Fatalf("%d trace records, %d resource records", len(tr.Records), len(rl.Records))
	}
	var spans []string
	supersteps := 0
	for i := range tr.Records {
		a, b := &tr.Records[i], &rl.Records[i]
		if a.Type != b.Type || a.Name != b.Name {
			t.Fatalf("record %d: trace has %s %q, resources %s %q", i, a.Type, a.Name, b.Type, b.Name)
		}
		if a.Type == "span" {
			spans = append(spans, a.Name)
		}
		// The resource record keeps the trace record's scalar attrs and
		// drops its structured ones (a superstep's per-machine arrays).
		scalars := map[string]any{}
		for k, v := range a.Attrs {
			if strings.HasPrefix(k, "res_") {
				t.Fatalf("record %d (%s): %s entered the trace", i, a.Name, k)
			}
			if _, structured := v.([]any); !structured {
				scalars[k] = v
			}
		}
		probed := map[string]any{}
		res := 0
		for k, v := range b.Attrs {
			if strings.HasPrefix(k, "res_") {
				res++
			} else {
				probed[k] = v
			}
		}
		if !reflect.DeepEqual(scalars, probed) {
			t.Fatalf("record %d (%s): scalar attrs differ:\n trace     %v\n resources %v", i, a.Name, scalars, probed)
		}
		if _, lap := b.Float("res_wall_us"); res < 6 || lap != (b.Type == "event") {
			t.Fatalf("record %d (%s %s): %d res_* attrs, res_wall_us present = %v", i, b.Type, b.Name, res, lap)
		}
		if a.Name == "cluster.superstep" {
			if it, ok := b.Int("iteration"); !ok || it != supersteps {
				t.Fatalf("superstep %d: resource record carries iteration %d (%v)", supersteps, it, ok)
			}
			if _, ok := a.Attrs["compute"]; !ok {
				t.Fatal("the trace lost its per-machine arrays")
			}
			supersteps++
		}
	}
	for _, want := range []string{"bpart.partition", "bpart.layer", "partition.stream", "bpart.refine", "walk.run"} {
		if !slices.Contains(spans, want) {
			t.Errorf("no %q span in either log: %v", want, spans)
		}
	}
	if supersteps == 0 {
		t.Fatal("no cluster.superstep events")
	}
	// The resource file is a trace: every trace view reads it, and the
	// resource view reads the plain trace as "nothing captured".
	if s, err := resview.Summarize(rl); err != nil || len(s) == 0 {
		t.Fatalf("resource file summary: %v, %v", s, err)
	}
	if s, err := resview.Summarize(tr); err != nil || len(s) != 0 {
		t.Fatalf("plain trace summary: %v, %v", s, err)
	}
	if steps, err := traceview.Supersteps(rl); err != nil || len(steps) != 0 {
		t.Fatalf("the resource file's scalar-only supersteps: %d decoded, %v", len(steps), err)
	}
	if err := traceview.WriteReport(&bytes.Buffer{}, rl); err != nil {
		t.Fatalf("trace report of the resource file: %v", err)
	}
}

// The registry folds every span, so it exists only when something reads
// it: -trace alone builds none, -metrics builds one and prints the folded
// counters at exit.
func TestRegistryOnlyWhenRead(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	tel, err := setupTelemetry(filepath.Join(dir, "t.jsonl"), false, "", "", &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if tel.reg != nil {
		t.Error("-trace alone built a metrics registry")
	}
	if err := tel.finish(); err != nil {
		t.Fatal(err)
	}

	stdout.Reset()
	if err := run([]string{
		"-dataset", "lj-sim", "-scale", "0.02", "-k", "4",
		"-trace", filepath.Join(dir, "m.jsonl"), "-metrics",
	}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	for _, want := range []string{"--- metrics ---", "\nbpart_partition_total 1\n", "\nbpart_layer_total ", "\npartition_stream_placed_total "} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("-metrics dump lacks %q:\n%s", want, stdout.String())
		}
	}
}

// The decision audit holds no wall clock: two identical -trace runs write
// the same audit.* events but for their ts, and -resources beside the
// trace does not perturb them.
func TestAuditLogDeterministic(t *testing.T) {
	dir := t.TempDir()
	audit := func(tag string, extra ...string) []traceview.Record {
		t.Helper()
		path := filepath.Join(dir, tag+"_trace.jsonl")
		args := append([]string{"-dataset", "twitter-sim", "-scale", "0.02", "-k", "8", "-trace", path}, extra...)
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("%s run: %v\n%s", tag, err, stderr.String())
		}
		tr, err := traceview.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var events []traceview.Record
		for _, r := range tr.Records {
			if strings.HasPrefix(r.Name, "audit.") {
				r.Time = time.Time{}
				events = append(events, r)
			}
		}
		return events
	}
	one := audit("one")
	if len(one) == 0 {
		t.Fatal("no audit events")
	}
	if two := audit("two"); !reflect.DeepEqual(one, two) {
		t.Fatal("audit events differ across identical runs")
	}
	observed := audit("observed", "-resources", filepath.Join(dir, "r.jsonl"))
	if !reflect.DeepEqual(one, observed) {
		t.Fatal("-resources perturbed the audit events")
	}
}

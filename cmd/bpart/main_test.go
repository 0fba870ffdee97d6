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

	"bpart/internal/traceview"
)

// An error raised after the trace is open and records were emitted must
// still leave the trace flushed: the deferred close runs because run
// returns instead of exiting.
func TestErrorExitKeepsLogs(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-dataset", "lj-sim", "-scale", "0.02", "-scheme", "BPart", "-k", "4",
		"-trace", tracePath,
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
	if s, err := traceview.SummarizeSpans(tr); err != nil || len(s) == 0 || s[0].AllocBytes == 0 {
		t.Fatalf("trace lost its resource deltas: %v, %v", s, err)
	}
	if stderr.Len() != 0 {
		t.Fatalf("flush diagnostics on a healthy disk: %s", stderr.String())
	}
}

// A trace that cannot be flushed (a full disk) fails the run, and no
// "written to" line claims otherwise.
func TestFullDiskFailsRun(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform:", err)
	}
	t.Run("-trace", func(t *testing.T) {
		var stdout, stderr bytes.Buffer
		err := run([]string{"-dataset", "lj-sim", "-scale", "0.02", "-k", "4", "-trace", "/dev/full"}, &stdout, &stderr)
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("run = %v, want the failed flush (ENOSPC)", err)
		}
		if !strings.Contains(stdout.String(), "into 4 parts") {
			t.Fatalf("the run failed before partitioning:\n%s", stdout.String())
		}
		if strings.Contains(stdout.String(), "/dev/full") {
			t.Errorf("stdout claims the trace was written:\n%s", stdout.String())
		}
	})
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

// A negative -workers is a usage error with a one-line diagnostic, raised
// before any output file is created; the pool would otherwise run it at
// the default width.
func TestNegativeWorkersIsUsageError(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	err := run([]string{"-dataset", "lj-sim", "-scale", "0.02", "-k", "4", "-workers", "-1",
		"-out", filepath.Join(dir, "o.txt"), "-trace", filepath.Join(dir, "t.jsonl")}, &stdout, &stderr)
	if err != errUsage {
		t.Fatalf("run = %v, want errUsage", err)
	}
	if diag := stderr.String(); diag != "bpart: -workers must be >= 0 (got -1)\n" {
		t.Fatalf("diagnostic %q", diag)
	}
	if stdout.Len() != 0 {
		t.Fatalf("the run started:\n%s", stdout.String())
	}
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Fatalf("a refused run created files: %v, %v", left, err)
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

// One trace per run: every span record carries the res_* resource deltas
// of its interval and no event carries any, so the resource view of the
// -trace file sees exactly the run's span names. And the trace is
// observation only: the assignment and the timeline are the bytes an
// unobserved run writes.
func TestTraceSpansCarryResources(t *testing.T) {
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
	tracePath := filepath.Join(dir, "t.jsonl")
	plainParts, plainTimeline := runOnce("plain")
	obsParts, obsTimeline := runOnce("observed", "-trace", tracePath)
	if !bytes.Equal(plainParts, obsParts) {
		t.Error("-trace perturbed the assignment")
	}
	if !bytes.Equal(plainTimeline, obsTimeline) {
		t.Error("-trace perturbed the timeline")
	}

	tr, err := traceview.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var spans []string
	supersteps := 0
	for i := range tr.Records {
		r := &tr.Records[i]
		res := 0
		for k := range r.Attrs {
			if strings.HasPrefix(k, "res_") {
				res++
			}
		}
		switch {
		case r.Type == "span" && res < 6:
			t.Fatalf("record %d (span %s): %d res_* attrs, want every span's deltas", i, r.Name, res)
		case r.Type == "event" && res != 0:
			t.Fatalf("record %d (event %s): %d res_* attrs, want none", i, r.Name, res)
		}
		if r.Type == "span" && !slices.Contains(spans, r.Name) {
			spans = append(spans, r.Name)
		}
		if r.Name == "cluster.superstep" {
			if _, ok := r.Attrs["compute"]; !ok {
				t.Fatal("a superstep event lost its per-machine arrays")
			}
			supersteps++
		}
	}
	if supersteps == 0 {
		t.Fatal("no cluster.superstep events")
	}
	sums, err := traceview.SummarizeSpans(tr)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range sums {
		names = append(names, s.Name)
	}
	slices.Sort(names)
	slices.Sort(spans)
	if !slices.Equal(names, spans) {
		t.Fatalf("span rows %v, want the span names %v", names, spans)
	}
	for _, want := range []string{"bpart.partition", "bpart.layer", "partition.stream", "bpart.refine", "walk.run"} {
		if !slices.Contains(spans, want) {
			t.Errorf("no %q span: %v", want, spans)
		}
	}
	if steps, err := traceview.Supersteps(tr); err != nil || len(steps) != supersteps {
		t.Fatalf("the trace's supersteps: %d decoded of %d, %v", len(steps), supersteps, err)
	}
}

// The registry folds every span, so it exists only when something reads
// it: -trace alone builds none, -metrics builds one and prints the folded
// counters at exit.
func TestRegistryOnlyWhenRead(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	tel, err := setupTelemetry(filepath.Join(dir, "t.jsonl"), false, "", &stdout, &stderr)
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
// the same audit.* events but for their ts (the resource deltas ride on
// spans, never on events).
func TestAuditLogDeterministic(t *testing.T) {
	dir := t.TempDir()
	audit := func(tag string) []traceview.Record {
		t.Helper()
		path := filepath.Join(dir, tag+"_trace.jsonl")
		var stdout, stderr bytes.Buffer
		if err := run([]string{"-dataset", "twitter-sim", "-scale", "0.02", "-k", "8", "-trace", path}, &stdout, &stderr); err != nil {
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
}

package main

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"bpart/internal/partaudit"
	"bpart/internal/resview"
	"bpart/internal/traceview"
)

// An error raised after the observability files are open and records were
// emitted must still leave every log flushed: the deferred closes run
// because run returns instead of exiting.
func TestErrorExitKeepsLogs(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	auditPath := filepath.Join(dir, "audit.jsonl")
	resPath := filepath.Join(dir, "res.jsonl")
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-dataset", "lj-sim", "-scale", "0.02", "-scheme", "BPart", "-k", "4",
		"-trace", tracePath, "-audit", auditPath, "-resources", resPath,
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
	al, err := partaudit.ReadLogFile(auditPath)
	if err != nil {
		t.Fatal(err)
	}
	if al.Truncated || al.Header == nil || al.Final == nil {
		t.Fatalf("audit log incomplete: truncated=%v header=%v final=%v", al.Truncated, al.Header, al.Final)
	}
	rl, err := resview.ReadFile(resPath)
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

func TestBadFlagIsUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-no-such-flag"}, &stdout, &stderr); err != errUsage {
		t.Fatalf("run = %v, want errUsage", err)
	}
	if !strings.Contains(stderr.String(), "no-such-flag") {
		t.Fatalf("flag error not reported: %q", stderr.String())
	}
}

// One hook, two logs: every trace span is a resource span record and every
// trace event a resource lap, because -trace and -resources are two sinks
// of the one Span/Event call each phase makes. And both are observation
// only: the assignment and the timeline are the bytes an unobserved run
// writes.
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
	rl, err := resview.ReadFile(resPath)
	if err != nil {
		t.Fatal(err)
	}
	// In emission order, each log restricted to one record type is the
	// same sequence of names — a stronger statement than multiset equality.
	names := func(typ string) (trace, res []string) {
		for _, r := range tr.Records {
			if r.Type == typ {
				trace = append(trace, r.Name)
			}
		}
		kind := map[string]string{"span": resview.KindSpan, "event": resview.KindLap}[typ]
		for _, r := range rl.Records {
			if r.Kind == kind {
				res = append(res, r.Phase)
			}
		}
		return trace, res
	}
	for _, typ := range []string{"span", "event"} {
		trace, res := names(typ)
		if len(trace) == 0 || !reflect.DeepEqual(trace, res) {
			t.Errorf("%s names differ between the logs:\n trace     %v\n resources %v", typ, trace, res)
		}
	}
	spans, _ := names("span")
	for _, want := range []string{"bpart.partition", "bpart.layer", "partition.stream", "bpart.refine", "walk.run"} {
		if !slices.Contains(spans, want) {
			t.Errorf("no %q span in either log: %v", want, spans)
		}
	}
	events := tr.Events("cluster.superstep")
	var laps []resview.Record
	for _, r := range rl.Records {
		if r.Kind == resview.KindLap && r.Phase == "cluster.superstep" {
			laps = append(laps, r)
		}
	}
	if len(events) == 0 || len(events) != len(laps) {
		t.Fatalf("%d cluster.superstep events, %d laps", len(events), len(laps))
	}
	for i := range events {
		ei, eok := events[i].Int("iteration")
		li, lok := laps[i].Int("iteration")
		if !eok || !lok || ei != li || ei != i {
			t.Fatalf("superstep %d: trace iteration %d (%v), lap iteration %d (%v)", i, ei, eok, li, lok)
		}
		if _, ok := laps[i].Attrs["compute"]; ok {
			t.Fatal("per-machine arrays entered the resource log")
		}
	}
}

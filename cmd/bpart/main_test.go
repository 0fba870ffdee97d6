package main

import (
	"bytes"
	"path/filepath"
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

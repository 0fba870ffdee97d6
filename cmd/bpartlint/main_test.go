package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRepoIsLintClean is the acceptance gate: the suite must run over the
// whole module without crashing and without diagnostics. The only
// production waivers (grep for bpartlint:ignore outside internal/analysis)
// are the two documented aliasret ownership transfers,
// engine.SubsetFromVertices and graph.FromCSR, so this is an exact zero
// across all eight analyzers. It type-checks every package
// (including the standard library, from source), so it is the slowest test
// in the repo; -short skips it.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide type-check is slow")
	}
	var out, errOut bytes.Buffer
	code := Main([]string{"../../..."}, false, &out, &errOut)
	if code != 0 {
		t.Fatalf("bpartlint exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Fatalf("unexpected diagnostics:\n%s", out.String())
	}
}

// TestExpandSkipsFixtures guards the walker: testdata trees hold seeded
// violations and must never leak into a ./... run.
func TestExpandSkipsFixtures(t *testing.T) {
	dirs, err := expand([]string{"../../internal/analysis/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no directories found")
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("expand leaked fixture dir %s", d)
		}
	}
}

// TestJSONOutputGolden pins the -json wire format byte for byte against a
// seeded fixture: one object per line, fields file/line/col/analyzer/
// message in that order, paths relative to the working directory. CI
// uploads this stream as the findings artifact; changing the shape is a
// breaking change for whatever diffs it.
func TestJSONOutputGolden(t *testing.T) {
	var out, errOut bytes.Buffer
	code := Main([]string{"../../internal/analysis/testdata/noclock/core"}, true, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (findings)\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	const file = "../../internal/analysis/testdata/noclock/core/a.go"
	const tail = `: use simulated time or telemetry.NewStopwatch (or waive with bpartlint:ignore noclock)"}` + "\n"
	want := `{"file":"` + file + `","line":9,"col":11,"analyzer":"noclock","message":"wall-clock read time.Now in a deterministic package` + tail +
		`{"file":"` + file + `","line":11,"col":9,"analyzer":"noclock","message":"wall-clock read time.Since in a deterministic package` + tail +
		`{"file":"` + file + `","line":16,"col":9,"analyzer":"noclock","message":"wall-clock read time.After in a deterministic package` + tail +
		`{"file":"` + file + `","line":21,"col":2,"analyzer":"noclock","message":"wall-clock read time.Sleep in a deterministic package` + tail
	if got := out.String(); got != want {
		t.Errorf("-json output mismatch\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestListInventoryGolden pins the -list output the Makefile lint target
// prints: all eight analyzers, alphabetical, one line each.
func TestListInventoryGolden(t *testing.T) {
	var out bytes.Buffer
	listAnalyzers(&out)
	want := []string{
		"aliasret     forbid retaining or returning caller-supplied slices/maps without copy",
		"errio        forbid discarded writer/flush errors in I/O packages",
		"floateq      forbid ==/!= on float operands outside the epsilon helpers",
		"maporder     forbid map iteration whose order escapes into output",
		"metricname   require snake_case constant metric names, consistent per kind",
		"noclock      forbid wall-clock reads in the deterministic packages",
		"norawrand    forbid math/rand imports outside internal/xrand",
		"spanend      require every started telemetry span to be ended on all paths",
	}
	got := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("inventory has %d lines, want %d:\n%s", len(got), len(want), out.String())
	}
	for i := range want {
		if strings.TrimRight(got[i], " ") != strings.TrimRight(want[i], " ") {
			t.Errorf("inventory line %d:\ngot  %q\nwant %q", i, got[i], want[i])
		}
	}
}

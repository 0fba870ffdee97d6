package main

import (
	"bytes"
	"go/token"
	"sort"
	"strings"
	"testing"

	"bpart/internal/analysis"
)

// TestRepoIsLintClean is the acceptance gate: the suite must run over the
// whole module and the nested benchmark module without crashing and
// without diagnostics. The only production waivers (grep for
// bpartlint:ignore outside internal/analysis) are the two documented
// aliasret ownership transfers, engine.SubsetFromVertices and
// graph.FromCSR, so this is an exact zero across the whole suite. It
// type-checks every package from source once (imports come from the
// export data go list reports); -short skips it.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide type-check is slow")
	}
	var out, errOut bytes.Buffer
	code := Main([]string{"../../...", "../../benchmark/..."}, false, &out, &errOut)
	if code != 0 {
		t.Fatalf("bpartlint exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	if out.Len() != 0 {
		t.Fatalf("unexpected diagnostics:\n%s", out.String())
	}
}

// TestLoadSkipsFixtures guards the package patterns: testdata trees hold
// seeded violations and must never leak into a dir/... run.
func TestLoadSkipsFixtures(t *testing.T) {
	pkgs, err := analysis.Load(token.NewFileSet(), "../../internal/analysis", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, p := range pkgs {
		if strings.Contains(p.Path, "/testdata/") {
			t.Errorf("load leaked fixture package %s", p.Path)
		}
	}
}

// TestPatternWithoutPackageIsLoadError pins exit 2 for a pattern that
// names no package (a missing directory, a directory without Go files, a
// tree without packages), with a message that names the pattern.
func TestPatternWithoutPackageIsLoadError(t *testing.T) {
	for _, pat := range []string{"../../nope", "../../baselines", "../../baselines/..."} {
		var out, errOut bytes.Buffer
		if code := Main([]string{pat}, false, &out, &errOut); code != 2 {
			t.Errorf("%s: exit %d, want 2\nstderr:\n%s", pat, code, errOut.String())
		}
		if !strings.Contains(errOut.String(), "bpartlint: "+pat+": ") {
			t.Errorf("%s: stderr does not name the pattern:\n%s", pat, errOut.String())
		}
		if out.Len() != 0 {
			t.Errorf("%s: unexpected stdout:\n%s", pat, out.String())
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

// TestInventory pins the suite's size and ordering: exactly these eight
// analyzers, alphabetical by name, each with a run function and a doc
// whose first line is a short undotted summary, so CLI output, CI
// artifacts and the Makefile inventory print stay stable.
func TestInventory(t *testing.T) {
	want := []string{"aliasret", "errio", "floateq", "maporder", "metricname", "noclock", "norawrand", "spanend"}
	var got []string
	for _, a := range analyzers {
		got = append(got, a.Name)
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("suite = %v, want %v", got, want)
	}
	if !sort.StringsAreSorted(got) {
		t.Errorf("suite order is not alphabetical: %v", got)
	}
	for _, a := range analyzers {
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q is missing doc or run function", a.Name)
		}
		first := strings.SplitN(a.Doc, "\n", 2)[0]
		if strings.HasSuffix(first, ".") || first == "" {
			t.Errorf("analyzer %q doc first line should be a short undotted summary, got %q", a.Name, first)
		}
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

package experiments

import (
	"strings"
	"testing"

	"bpart/internal/gen"
)

const testScale = 0.02

func TestTableString(t *testing.T) {
	tbl := &Table{
		ID:     "X",
		Title:  "demo",
		Header: []string{"a", "long-header"},
		Notes:  []string{"a note"},
	}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	s := tbl.String()
	for _, want := range []string{"== X: demo ==", "long-header", "333", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	// header + separator + 2 rows + note + title
	if len(lines) != 6 {
		t.Fatalf("rendering has %d lines:\n%s", len(lines), s)
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{
		Header: []string{"a", "b"},
	}
	tbl.AddRow("1", "x,y") // embedded comma must be quoted
	tbl.AddRow("2", "z")
	var buf strings.Builder
	if err := tbl.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,\"x,y\"\n2,z\n"
	if buf.String() != want {
		t.Fatalf("CSV = %q, want %q", buf.String(), want)
	}
}

func TestAllUniqueIDs(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if e.ID == "" || e.Run == nil {
			t.Fatalf("malformed experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate experiment ID %q", e.ID)
		}
		seen[e.ID] = true
	}
	for _, id := range []string{"Fig 3", "Fig 14", "Table 2", "Table 3", "Fig 15"} {
		if !seen[id] {
			t.Errorf("missing experiment %q", id)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.scale() != 1.0 {
		t.Fatalf("default scale %v", o.scale())
	}
	if o.loadWalkers() != 5 || o.appWalkers() != 1 {
		t.Fatalf("default walkers %d/%d", o.loadWalkers(), o.appWalkers())
	}
	o = Options{Scale: 0.5, Walkers: 3}
	if o.scale() != 0.5 || o.loadWalkers() != 3 || o.appWalkers() != 3 {
		t.Fatalf("explicit options ignored: %+v", o)
	}
}

func TestMemoizationReturnsSameGraph(t *testing.T) {
	ResetMemo()
	opt := Options{Scale: testScale}
	g1, err := dataset(gen.LJSim, opt)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := dataset(gen.LJSim, opt)
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("dataset not memoized")
	}
	a1, err := assignment(gen.LJSim, opt, "Chunk-V", 4)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := assignment(gen.LJSim, opt, "Chunk-V", 4)
	if err != nil {
		t.Fatal(err)
	}
	if &a1[0] != &a2[0] {
		t.Fatal("assignment not memoized")
	}
	ResetMemo()
	g3, err := dataset(gen.LJSim, opt)
	if err != nil {
		t.Fatal(err)
	}
	if g1 == g3 {
		t.Fatal("ResetMemo did not clear the cache")
	}
}

func TestAssignmentUnknownScheme(t *testing.T) {
	if _, err := assignment(gen.LJSim, Options{Scale: testScale}, "bogus", 4); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestSummarizeRatios(t *testing.T) {
	minR, medR, maxR := summarizeRatios([]int{1, 2, 7})
	if minR != 0.1 || maxR != 0.7 {
		t.Fatalf("min/max = %v/%v", minR, maxR)
	}
	if medR != 0.2 {
		t.Fatalf("median = %v", medR)
	}
	if a, b, c := summarizeRatios(nil); a != 0 || b != 0 || c != 0 {
		t.Fatal("empty summarize not zero")
	}
	if a, _, _ := summarizeRatios([]int{0, 0}); a != 0 {
		t.Fatal("zero-total summarize not zero")
	}
}

func TestRunAppUnknown(t *testing.T) {
	if _, err := runApp("bogus", gen.LJSim, Options{Scale: testScale}, "Chunk-V", 2); err == nil {
		t.Fatal("unknown app accepted")
	}
}

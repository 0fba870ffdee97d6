package traceview

import (
	"bytes"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

func mustRead(t *testing.T, lines string) *Trace {
	t.Helper()
	tr, err := Read(strings.NewReader(lines))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// Nesting is rebuilt from wall-clock containment: a contained span becomes
// a child, an overlapping-but-not-contained span a sibling.
func TestBuildTreeContainment(t *testing.T) {
	tr := mustRead(t, `{"ts":"2026-08-06T10:00:00Z","type":"span","name":"outer","dur_us":1000}
{"ts":"2026-08-06T10:00:00.0001Z","type":"span","name":"mid","dur_us":500}
{"ts":"2026-08-06T10:00:00.00015Z","type":"span","name":"inner","dur_us":100}
{"ts":"2026-08-06T10:00:00.0007Z","type":"span","name":"tail","dur_us":200}
{"ts":"2026-08-06T10:00:00.002Z","type":"span","name":"later","dur_us":100}
`)
	root := BuildTree(tr)
	if len(root.Children) != 2 {
		t.Fatalf("got %d top-level spans, want 2 (outer, later)", len(root.Children))
	}
	outer := root.Children[0]
	if outer.Rec.Name != "outer" || len(outer.Children) != 2 {
		t.Fatalf("outer = %q with %d children, want outer with 2 (mid, tail)", outer.Rec.Name, len(outer.Children))
	}
	mid := outer.Children[0]
	if mid.Rec.Name != "mid" || len(mid.Children) != 1 || mid.Children[0].Rec.Name != "inner" {
		t.Fatalf("mid subtree wrong: %q with %d children", mid.Rec.Name, len(mid.Children))
	}
	if outer.Children[1].Rec.Name != "tail" {
		t.Fatalf("second child of outer = %q, want tail", outer.Children[1].Rec.Name)
	}
	if root.Children[1].Rec.Name != "later" {
		t.Fatalf("second top-level span = %q, want later", root.Children[1].Rec.Name)
	}
}

// Equal-start spans: the longer one is the container.
func TestBuildTreeEqualStart(t *testing.T) {
	tr := mustRead(t, `{"ts":"2026-08-06T10:00:00Z","type":"span","name":"short","dur_us":100}
{"ts":"2026-08-06T10:00:00Z","type":"span","name":"long","dur_us":1000}
`)
	root := BuildTree(tr)
	if len(root.Children) != 1 || root.Children[0].Rec.Name != "long" {
		t.Fatalf("top level = %v", root.Children)
	}
	if len(root.Children[0].Children) != 1 || root.Children[0].Children[0].Rec.Name != "short" {
		t.Fatal("short span not nested under the equal-start longer span")
	}
}

// Walk must report depth 0 for top-level spans and descend in order.
func TestWalkDepths(t *testing.T) {
	tr, err := ReadFile(filepath.Join("testdata", "sample.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	var depths []int
	BuildTree(tr).Walk(func(n *SpanNode, depth int) {
		if n.Rec == nil {
			return
		}
		names = append(names, n.Rec.Name)
		depths = append(depths, depth)
	})
	if len(names) != 2 || names[0] != "bench.experiment" || names[1] != "walk.run" {
		t.Fatalf("walk order = %v", names)
	}
	if depths[0] != 0 || depths[1] != 1 {
		t.Fatalf("walk depths = %v", depths)
	}
}

// resAttrs is the res_* attr object of the fixtures below.
const resAttrs = `"res_allocs":10,"res_alloc_bytes":4096,"res_heap_bytes":1000,"res_gc_cycles":1,"res_gc_pause_us":5,"res_goroutines":2`

func resLine(sec int, name string, dur float64) string {
	return fmt.Sprintf(`{"ts":"2026-08-06T10:00:%02dZ","type":"span","name":%q,"dur_us":%v,"attrs":{%s}}`, sec, name, dur, resAttrs) + "\n"
}

func TestSummarizeSpans(t *testing.T) {
	tr := mustRead(t, `{"ts":"2026-08-06T10:00:00Z","type":"span","name":"a","dur_us":100}
{"ts":"2026-08-06T10:00:01Z","type":"span","name":"b","dur_us":400}
{"ts":"2026-08-06T10:00:02Z","type":"span","name":"a","dur_us":200}
{"ts":"2026-08-06T10:00:03Z","type":"event","name":"a"}
`)
	sums, err := SummarizeSpans(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 {
		t.Fatalf("got %d summaries, want 2", len(sums))
	}
	if sums[0].Name != "b" || sums[0].TotalUS != 400 {
		t.Fatalf("first summary = %+v, want b (largest total)", sums[0])
	}
	if sums[1].Name != "a" || sums[1].Count != 2 || sums[1].TotalUS != 300 || sums[1].MaxUS != 200 {
		t.Fatalf("a summary = %+v", sums[1])
	}
}

// Spans aggregate their res_* deltas by name; an event is no row, even
// one that carries a lap's res_* attrs, and a span without res_* adds
// nothing to the sums.
func TestSummarizeSpansResources(t *testing.T) {
	tr := mustRead(t, `{"ts":"2026-08-06T10:00:00Z","type":"span","name":"a","dur_us":100}
{"ts":"2026-08-06T10:00:01Z","type":"span","name":"b","dur_us":400}
{"ts":"2026-08-06T10:00:03Z","type":"event","name":"a","attrs":{"res_wall_us":50,`+resAttrs+`}}
`+resLine(2, "a", 200)+resLine(4, "a", 0))
	sums, err := SummarizeSpans(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 2 {
		t.Fatalf("got %d summaries, want 2", len(sums))
	}
	if sums[0].Name != "b" || sums[0].TotalUS != 400 || sums[0].Allocs != 0 || sums[0].AllocBytes != 0 {
		t.Fatalf("first summary = %+v, want b (largest total, no deltas)", sums[0])
	}
	want := NameSummary{Name: "a", Count: 3, TotalUS: 300, MaxUS: 200, Allocs: 20, AllocBytes: 8192, GCCycles: 2, GCPauseUS: 10}
	if sums[1] != want {
		t.Fatalf("a summary = %+v, want %+v", sums[1], want)
	}
}

// No span with res_* attrs (an empty file, blank lines, a plain -trace
// file) sums to nothing and is no parse error; the report then has no
// resource columns. In a mixed file only the res_* spans add deltas.
func TestSummarizeSpansEmptyAndBlankLines(t *testing.T) {
	plain := `{"ts":"2026-08-06T10:00:00Z","type":"span","name":"partition.stream","dur_us":12,"attrs":{"k":8}}` + "\n" +
		`{"ts":"2026-08-06T10:00:01Z","type":"event","name":"cluster.superstep","attrs":{"iteration":0}}` + "\n"
	for name, in := range map[string]string{"empty": "", "blank lines": "\n\n", "plain trace": plain} {
		tr := mustRead(t, in)
		sums, err := SummarizeSpans(tr)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for _, s := range sums {
			if s.Allocs != 0 || s.AllocBytes != 0 || s.GCCycles != 0 || s.GCPauseUS != 0 {
				t.Errorf("%s: %+v carries deltas", name, s)
			}
		}
		var text bytes.Buffer
		if err := WriteReport(&text, tr); err != nil || strings.Contains(text.String(), "alloc") {
			t.Errorf("%s: report err %v:\n%s", name, err, text.String())
		}
	}
	sums, err := SummarizeSpans(mustRead(t, plain+resLine(2, "partition.stream", 1)))
	if err != nil || len(sums) != 1 || sums[0].Count != 2 || sums[0].Allocs != 10 {
		t.Errorf("mixed file: %+v, %v", sums, err)
	}
}

// What the trace writer never writes is rejected, not summed, on any
// record: the file is outside input. The report fails before its first
// byte.
func TestReadHardErrors(t *testing.T) {
	line := func(typ, dur, attrs string) string {
		return `{"ts":"2026-08-20T12:00:00Z","type":"` + typ + `","name":"a"` + dur + `,"attrs":{` + attrs + `}}` + "\n"
	}
	for name, in := range map[string]string{
		"negative dur_us":       line("span", `,"dur_us":-1`, `"res_allocs":1`),
		"negative lap":          line("event", "", `"res_wall_us":-1`),
		"negative allocs":       line("span", `,"dur_us":1`, `"res_allocs":-1`),
		"string number":         line("span", `,"dur_us":1`, `"res_alloc_bytes":"4096"`),
		"array number":          line("event", "", `"res_wall_us":1,"res_goroutines":[2]`),
		"null number":           line("span", `,"dur_us":1`, `"res_gc_pause_us":null`),
		"past int64":            line("span", `,"dur_us":1`, `"res_alloc_bytes":1e300`),
		"bad after good":        resLine(0, "a", 1) + line("span", `,"dur_us":1`, `"res_gc_cycles":true`),
		"bad among plain attrs": line("span", `,"dur_us":1`, `"scheme":"X","workers":1,"res_heap_bytes":-5`),
	} {
		tr := mustRead(t, in)
		if _, err := SummarizeSpans(tr); err == nil {
			t.Errorf("%s: summarized", name)
		}
		var text bytes.Buffer
		if err := WriteReport(&text, tr); err == nil || text.Len() != 0 {
			t.Errorf("%s: WriteReport err %v after %d bytes, want an error before the first", name, err, text.Len())
		}
	}
	// A schema-v1 resource log (any commit before the resource log became
	// a trace) is refused with a message that says what to do.
	v1 := `{"v":1,"type":"resource","seq":0,"kind":"span","phase":"partition.stream","wall_us":123.5,"allocs":10,"alloc_bytes":4096,"heap_bytes":1000,"gc_cycles":1,"gc_pause_us":5,"goroutines":2}` + "\n"
	for name, in := range map[string]string{"v1 log": v1 + v1, "v1 line in a trace": resLine(0, "a", 1) + v1 + resLine(1, "b", 1)} {
		_, err := Read(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "schema-v1 resource log") || !strings.Contains(err.Error(), "re-record with -trace") {
			t.Errorf("%s: err = %v, want the re-record message", name, err)
		}
	}
}

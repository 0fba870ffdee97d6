package resview

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"bpart/internal/telemetry"
	"bpart/internal/traceview"
)

// read parses a resource log the way every consumer does: it is a trace.
func read(t *testing.T, in string) *traceview.Trace {
	t.Helper()
	tr, err := traceview.Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// A span written by the trace writer decodes to its resource deltas, with
// its own dur_us as the wall time; an event carries no res_* attr, so it
// decodes to nothing and is no phase of the summary.
func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	trace := telemetry.NewJSONL(&buf)
	sp := trace.Span("partition.stream", telemetry.Int("k", 8))
	waste := make([]byte, 1<<20)
	_ = waste
	sp.End(telemetry.Int("placed", 100))
	trace.Event("cluster.superstep", telemetry.Int("iteration", 0), telemetry.Any("compute", []float64{1, 2}))
	trace.Event("cluster.superstep", telemetry.Int("iteration", 1), telemetry.Any("compute", []float64{1, 2}))
	if err := trace.Close(); err != nil {
		t.Fatal(err)
	}
	tr := read(t, buf.String())
	if tr.Truncated {
		t.Fatal("clean log flagged truncated")
	}
	if len(tr.Records) != 3 {
		t.Fatalf("got %d records, want 3", len(tr.Records))
	}
	r := &tr.Records[0]
	if r.Type != "span" || r.Name != "partition.stream" || r.DurUS < 0 {
		t.Fatalf("record 0: %+v", r)
	}
	if k, ok := r.Int("k"); !ok || k != 8 {
		t.Fatalf("k attr: %v %v", k, ok)
	}
	if placed, ok := r.Int("placed"); !ok || placed != 100 {
		t.Fatalf("End attr lost: %v %v", placed, ok)
	}
	u, err := decode(r)
	if err != nil || u == nil {
		t.Fatalf("span carries no resource numbers: %v %v", u, err)
	}
	if u["res_alloc_bytes"] < 1<<20 || u["res_wall_us"] != r.DurUS {
		t.Fatalf("span usage %v: want the 1 MiB allocation and dur_us as the wall time", u)
	}
	for _, key := range []string{"res_allocs", "res_heap_bytes", "res_gc_cycles", "res_gc_pause_us"} {
		if _, ok := u[key]; !ok {
			t.Fatalf("span without %s: %v", key, u)
		}
	}
	if _, twice := r.Attrs["res_wall_us"]; twice {
		t.Fatal("a span's wall time is written twice")
	}
	for _, ev := range tr.Records[1:] {
		if ev.Type != "event" || ev.Name != "cluster.superstep" {
			t.Fatalf("event not recorded as an event: %+v", ev)
		}
		if u, err := decode(&ev); err != nil || u != nil {
			t.Fatalf("event carries resource numbers: %v, %v", u, err)
		}
	}
	if s, err := Summarize(tr); err != nil || len(s) != 1 || s[0].Phase != "partition.stream" {
		t.Fatalf("summary %+v, %v: want the one span", s, err)
	}
}

// resAttrs is the res_* attr object of the fixtures below.
const resAttrs = `"res_allocs":10,"res_alloc_bytes":4096,"res_heap_bytes":1000,"res_gc_cycles":1,"res_gc_pause_us":5,"res_goroutines":2`

func validLine(seq int, phase string, wall float64, attrs string) string {
	return fmt.Sprintf(`{"ts":"2026-08-20T12:00:%02dZ","type":"span","name":%q,"dur_us":%v,"attrs":{%s%s}}`,
		seq, phase, wall, attrs, resAttrs) + "\n"
}

func textReport(t *testing.T, tr *traceview.Trace) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteReport(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// A crashed run's torn final line is traceview.Read's to tolerate; the
// report says so and covers the intact prefix.
func TestReadTornTail(t *testing.T) {
	out := textReport(t, read(t, validLine(0, "a", 100, "")+`{"ts":"2026-08-20T12:0`))
	for _, want := range []string{"WARNING: final log line torn", "RESOURCES: 1 records across 1 phases"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// What the trace writer never writes is rejected, not summed: the file is outside
// input. A schema-v1 resource log (any commit before the resource log
// became a trace) is refused by the one reader with a message that says
// what to do.
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
		"bad after good":        validLine(0, "a", 1, "") + line("span", `,"dur_us":1`, `"res_gc_cycles":true`),
		"bad among plain attrs": line("span", `,"dur_us":1`, `"scheme":"X","workers":1,"res_heap_bytes":-5`),
	} {
		tr := read(t, in)
		if _, err := Summarize(tr); err == nil {
			t.Errorf("%s: summarized", name)
		}
		var text bytes.Buffer
		if err := WriteReport(&text, tr); err == nil || text.Len() != 0 {
			t.Errorf("%s: WriteReport err %v after %d bytes, want an error before the first", name, err, text.Len())
		}
	}
	v1 := `{"v":1,"type":"resource","seq":0,"kind":"span","phase":"partition.stream","wall_us":123.5,"allocs":10,"alloc_bytes":4096,"heap_bytes":1000,"gc_cycles":1,"gc_pause_us":5,"goroutines":2}` + "\n"
	for name, in := range map[string]string{"v1 log": v1 + v1, "v1 line in a trace": validLine(0, "a", 1, "") + v1 + validLine(1, "b", 1, "")} {
		_, err := traceview.Read(strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "schema-v1 resource log") || !strings.Contains(err.Error(), "re-record with -trace") {
			t.Errorf("%s: err = %v, want the re-record message", name, err)
		}
	}
}

// No record with res_* attrs — an empty file, or a plain -trace file — is
// "capture was off", not a parse error.
func TestReadEmptyAndBlankLines(t *testing.T) {
	plain := `{"ts":"2026-08-20T12:00:00Z","type":"span","name":"partition.stream","dur_us":12,"attrs":{"k":8}}` + "\n" +
		`{"ts":"2026-08-20T12:00:01Z","type":"event","name":"cluster.superstep","attrs":{"iteration":0}}` + "\n"
	for name, in := range map[string]string{"empty": "", "blank lines": "\n\n", "plain trace": plain} {
		tr := read(t, in)
		if s, err := Summarize(tr); err != nil || len(s) != 0 {
			t.Errorf("%s: Summarize = %v, %v", name, s, err)
		}
		if out := textReport(t, tr); !strings.HasPrefix(out, "No resource records: capture was off") {
			t.Errorf("%s: report = %q", name, out)
		}
	}
	// Spans with res_* attrs and plain records mix: only the former count.
	if s, err := Summarize(read(t, plain+validLine(2, "a", 1, ""))); err != nil || len(s) != 1 || s[0].Count != 1 {
		t.Errorf("mixed file: %v, %v", s, err)
	}
}

func TestSummarize(t *testing.T) {
	in := validLine(0, "slow", 1000, "") + validLine(1, "fast", 10, "") + validLine(2, "slow", 500, "")
	s, err := Summarize(read(t, in))
	if err != nil {
		t.Fatal(err)
	}
	if len(s) != 2 {
		t.Fatalf("got %d summaries, want 2", len(s))
	}
	if s[0].Phase != "slow" || s[0].WallUS != 1500 || s[0].Count != 2 {
		t.Fatalf("summary 0: %+v", s[0])
	}
	if s[0].Allocs != 20 || s[0].AllocBytes != 8192 || s[0].GCCycles != 2 {
		t.Fatalf("summary 0 deltas: %+v", s[0])
	}
	if s[1].Phase != "fast" {
		t.Fatalf("sort order: %+v", s)
	}
}

func TestWriteReport(t *testing.T) {
	in := validLine(0, "partition.stream", 2500, "") + validLine(1, "walk.run", 1000, "")
	out := textReport(t, read(t, in))
	for _, want := range []string{
		"RESOURCES: 2 records across 2 phases",
		"partition.stream",
		"walk.run",
		"allocation / GC attribution",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "elided") {
		t.Errorf("two phases elided:\n%s", out)
	}
	// One phase past the cap elides from both tables.
	var many strings.Builder
	for i := 0; i <= maxPhases; i++ {
		many.WriteString(validLine(i, fmt.Sprintf("phase%02d", i), float64(100-i), ""))
	}
	if out := textReport(t, read(t, many.String())); strings.Count(out, "... 1 more phases elided\n") != 2 {
		t.Errorf("%d phases did not elide one per table:\n%s", maxPhases+1, out)
	}
}

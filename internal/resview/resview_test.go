package resview

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"bpart/internal/telemetry"
)

func TestProbeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	p := NewProbe(&buf)
	pe := p.Span("partition.stream", telemetry.Int("k", 8))
	waste := make([]byte, 1<<20)
	_ = waste
	pe.End(telemetry.Int("placed", 100))
	p.Event("cluster.superstep", telemetry.Int("iter", 0))
	p.Event("cluster.superstep", telemetry.Int("iter", 1))
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if l.Truncated {
		t.Fatal("clean log flagged truncated")
	}
	if len(l.Records) != 3 {
		t.Fatalf("got %d records, want 3", len(l.Records))
	}
	r := l.Records[0]
	if r.Kind != KindSpan || r.Phase != "partition.stream" || r.Seq != 0 {
		t.Fatalf("record 0: %+v", r)
	}
	if r.WallUS < 0 {
		t.Fatalf("negative wall: %v", r.WallUS)
	}
	if k, ok := r.Int("k"); !ok || k != 8 {
		t.Fatalf("k attr: %v %v", k, ok)
	}
	if placed, ok := r.Int("placed"); !ok || placed != 100 {
		t.Fatalf("End attr lost: %v %v", placed, ok)
	}
	if r.Goroutines < 1 {
		t.Fatalf("goroutines %d, want >= 1", r.Goroutines)
	}
	for i, r := range l.Records {
		if r.Seq != int64(i) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
	if l.Records[1].Kind != KindLap || l.Records[2].Kind != KindLap {
		t.Fatal("laps not recorded as laps")
	}
}

func TestProbeNilSafe(t *testing.T) {
	var p *Probe
	pe := p.Span("x")
	pe.End()
	p.Event("y")
	if err := p.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// failWriter fails every write after the first n bytes.
type failWriter struct{ n int }

func (w *failWriter) Write(b []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	if len(b) > w.n {
		n := w.n
		w.n = 0
		return n, errors.New("disk full")
	}
	w.n -= len(b)
	return len(b), nil
}

func TestProbeWriteErrorSticky(t *testing.T) {
	p := NewProbe(&failWriter{n: 10})
	for i := 0; i < 4; i++ {
		p.Span("x").End()
	}
	if err := p.Close(); err == nil {
		t.Fatal("Close hid the write failure")
	}
	if err := p.Flush(); err == nil {
		t.Fatal("error not sticky across Flush calls")
	}
}

func TestStripWallClock(t *testing.T) {
	var buf bytes.Buffer
	p := NewProbe(&buf)
	p.Span("a", telemetry.String("scheme", "Fennel")).End()
	p.Event("b")
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	l.StripWallClock()
	for i, r := range l.Records {
		if r.WallUS != 0 || r.Allocs != 0 || r.AllocBytes != 0 || r.HeapBytes != 0 ||
			r.GCCycles != 0 || r.GCPauseUS != 0 || r.GCCPUUS != 0 || r.Goroutines != 0 {
			t.Fatalf("record %d kept host-dependent fields: %+v", i, r)
		}
	}
	// Deterministic structure survives.
	if l.Records[0].Phase != "a" || l.Records[1].Phase != "b" {
		t.Fatal("strip damaged phases")
	}
	if s, ok := l.Records[0].Str("scheme"); !ok || s != "Fennel" {
		t.Fatal("strip damaged attrs")
	}
}

func validLine(seq int, phase string, wall float64, attrs string) string {
	a := ""
	if attrs != "" {
		a = `,"attrs":` + attrs
	}
	return fmt.Sprintf(`{"v":1,"type":"resource","seq":%d,"kind":"span","phase":%q,"wall_us":%v,"allocs":10,"alloc_bytes":4096,"heap_bytes":1000,"gc_cycles":1,"gc_pause_us":5,"goroutines":2%s}`,
		seq, phase, wall, a) + "\n"
}

func TestReadTornTail(t *testing.T) {
	in := validLine(0, "a", 100, "") + `{"v":1,"type":"resou`
	l, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if !l.Truncated || len(l.Records) != 1 {
		t.Fatalf("torn tail: %d records, truncated=%v", len(l.Records), l.Truncated)
	}
}

func TestReadHardErrors(t *testing.T) {
	cases := map[string]string{
		"interior damage":  validLine(0, "a", 100, "") + "garbage\n" + validLine(1, "b", 50, ""),
		"garbage first":    "garbage\n",
		"wrong type":       `{"v":1,"type":"span","seq":0,"kind":"span","phase":"a","wall_us":1}` + "\n",
		"future schema":    `{"v":99,"type":"resource","seq":0,"kind":"span","phase":"a","wall_us":1}` + "\n",
		"unknown kind":     `{"v":1,"type":"resource","seq":0,"kind":"interval","phase":"a","wall_us":1}` + "\n",
		"empty phase":      `{"v":1,"type":"resource","seq":0,"kind":"span","phase":"","wall_us":1}` + "\n",
		"negative wall_us": `{"v":1,"type":"resource","seq":0,"kind":"span","phase":"a","wall_us":-1}` + "\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestReadEmptyAndBlankLines(t *testing.T) {
	l, err := Read(strings.NewReader(""))
	if err != nil || len(l.Records) != 0 || l.Truncated {
		t.Fatalf("empty input: %v %+v", err, l)
	}
	l, err = Read(strings.NewReader("\n\n" + validLine(0, "a", 1, "") + "\n"))
	if err != nil || len(l.Records) != 1 {
		t.Fatalf("blank lines: %v, %d records", err, len(l.Records))
	}
}

func TestSummarize(t *testing.T) {
	in := validLine(0, "slow", 1000, "") + validLine(1, "fast", 10, "") + validLine(2, "slow", 500, "")
	l, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(l.Records)
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

func scalingLine(seq int, scheme string, workers int, wall float64) string {
	return fmt.Sprintf(`{"v":1,"type":"resource","seq":%d,"kind":"span","phase":%q,"wall_us":%v,"attrs":{"scheme":%q,"workers":%d}}`,
		seq, ScalingPhase, wall, scheme, workers) + "\n"
}

func TestCurves(t *testing.T) {
	in := scalingLine(0, "Fennel", 1, 1000) +
		scalingLine(1, "Fennel", 1, 800) + // best-of: keep the faster rep
		scalingLine(2, "Fennel", 2, 500) +
		scalingLine(3, "Fennel", 4, 400) +
		scalingLine(4, "LDG", 1, 600) +
		scalingLine(5, "LDG", 2, 300) +
		validLine(6, "partition.stream", 123, "") // unrelated phase ignored
	l, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	curves := Curves(l.Records)
	if len(curves) != 2 {
		t.Fatalf("got %d curves, want 2", len(curves))
	}
	if curves[0].Scheme != "Fennel" || curves[1].Scheme != "LDG" {
		t.Fatalf("scheme order: %+v", curves)
	}
	f := curves[0].Points
	if len(f) != 3 || f[0].Workers != 1 || f[1].Workers != 2 || f[2].Workers != 4 {
		t.Fatalf("Fennel points: %+v", f)
	}
	if f[0].WallUS != 800 {
		t.Fatalf("best-of-N not applied: %+v", f[0])
	}
	if f[1].Speedup != 1.6 || f[1].Efficiency != 0.8 {
		t.Fatalf("speedup math: %+v", f[1])
	}
	if f[0].Speedup != 1 || f[0].Efficiency != 1 {
		t.Fatalf("base point: %+v", f[0])
	}
	// Without a 1-worker base the derived columns stay zero.
	l2, err := Read(strings.NewReader(scalingLine(0, "X", 2, 100)))
	if err != nil {
		t.Fatal(err)
	}
	c2 := Curves(l2.Records)
	if len(c2) != 1 || c2[0].Points[0].Speedup != 0 {
		t.Fatalf("baseless curve: %+v", c2)
	}
}

func TestWriteReport(t *testing.T) {
	in := validLine(0, "partition.stream", 2500, "") + scalingLine(1, "Fennel", 1, 1000) + scalingLine(2, "Fennel", 2, 600)
	l, err := Read(strings.NewReader(in + `{"torn`))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, l, ReportOptions{}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"WARNING: final log line torn",
		"RESOURCES: 3 records across 2 phases",
		"partition.stream",
		"parallel speedup",
		"Fennel",
		"speedup",
		"efficiency",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Empty log gets the how-to-enable hint, not a crash.
	buf.Reset()
	if err := WriteReport(&buf, &Log{}, ReportOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "capture was off") {
		t.Errorf("empty-log hint missing:\n%s", buf.String())
	}
	// MaxPhases elides.
	buf.Reset()
	many := validLine(0, "a", 3, "") + validLine(1, "b", 2, "") + validLine(2, "c", 1, "")
	l3, err := Read(strings.NewReader(many))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteReport(&buf, l3, ReportOptions{MaxPhases: 2}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "more phases elided") {
		t.Errorf("MaxPhases did not elide:\n%s", buf.String())
	}
}

func TestWriteHTML(t *testing.T) {
	in := validLine(0, "partition.stream", 2500, "") + scalingLine(1, "Fennel", 1, 1000) + scalingLine(2, "Fennel", 4, 400)
	l, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteHTML(&buf, l, "test resources"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<!DOCTYPE html>", "test resources", "<svg", "Fennel", "partition.stream"} {
		if !strings.Contains(out, want) {
			t.Errorf("html missing %q", want)
		}
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile("/nonexistent/resources.jsonl"); err == nil {
		t.Fatal("missing file accepted")
	}
}

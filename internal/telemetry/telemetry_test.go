package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
)

func TestNopTracerZeroAlloc(t *testing.T) {
	tr := Nop()
	if tr.Enabled() {
		t.Fatal("no-op tracer reports Enabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Span("phase")
		sp.Annotate()
		sp.End()
		tr.Event("event")
	})
	if allocs != 0 {
		t.Fatalf("no-op tracer allocates %.1f per span+event, want 0", allocs)
	}
}

func TestSafe(t *testing.T) {
	if Safe(nil) == nil {
		t.Fatal("Safe(nil) returned nil")
	}
	m := NewMemory()
	if Safe(m) != Tracer(m) {
		t.Fatal("Safe did not pass through a non-nil tracer")
	}
}

func TestMemorySpansAndEvents(t *testing.T) {
	m := NewMemory()
	sp := m.Span("layer", Int("layer", 1))
	sp.Annotate(Int("pieces", 16))
	sp.End(Float("bias", 0.05))
	m.Event("tick", String("why", "test"), Bool("ok", true))

	recs := m.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	span := recs[0]
	if !span.Span || span.Name != "layer" || span.Dur < 0 {
		t.Fatalf("bad span record: %+v", span)
	}
	if got := span.Attr("layer"); got != int64(1) {
		t.Fatalf("layer attr = %v (%T), want 1", got, got)
	}
	if got := span.Attr("pieces"); got != int64(16) {
		t.Fatalf("pieces attr = %v, want 16", got)
	}
	if got := span.Attr("bias"); got != 0.05 {
		t.Fatalf("bias attr = %v, want 0.05", got)
	}
	ev := recs[1]
	if ev.Span || ev.Name != "tick" || ev.Attr("why") != "test" || ev.Attr("ok") != true {
		t.Fatalf("bad event record: %+v", ev)
	}
	if ev.Attr("missing") != nil {
		t.Fatal("missing attr should be nil")
	}

	if got := m.Find("layer"); len(got) != 1 {
		t.Fatalf("Find(layer) = %d records, want 1", len(got))
	}
	m.Reset()
	if len(m.Records()) != 0 {
		t.Fatal("Reset left records behind")
	}
}

func TestJSONLOutput(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONL(&buf)
	sp := tr.Span("bpart.layer", Int("layer", 2), Any("pieceV", []int{3, 5}))
	sp.End(Int("frozen", 4))
	tr.Event("cap.hit", String("dim", "E"))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			t.Fatalf("line %q is not valid JSON: %v", sc.Text(), err)
		}
		lines = append(lines, obj)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2", len(lines))
	}
	span := lines[0]
	if span["type"] != "span" || span["name"] != "bpart.layer" {
		t.Fatalf("bad span line: %v", span)
	}
	if _, ok := span["dur_us"].(float64); !ok {
		t.Fatalf("span line missing dur_us: %v", span)
	}
	attrs := span["attrs"].(map[string]any)
	if attrs["layer"] != 2.0 || attrs["frozen"] != 4.0 {
		t.Fatalf("bad span attrs: %v", attrs)
	}
	if v, ok := attrs["pieceV"].([]any); !ok || len(v) != 2 {
		t.Fatalf("Any slice attr not encoded: %v", attrs["pieceV"])
	}
	// The span carries its resource deltas; the event carries none.
	for _, key := range []string{"res_allocs", "res_alloc_bytes", "res_heap_bytes", "res_gc_cycles", "res_gc_pause_us", "res_gc_cpu_us"} {
		if v, ok := attrs[key].(float64); !ok || v < 0 {
			t.Errorf("span %s = %v, want a non-negative number", key, attrs[key])
		}
	}
	// Read after a pool has joined, a goroutine count says nothing about
	// the span, so none is written.
	if v, ok := attrs["res_goroutines"]; ok {
		t.Errorf("span carries res_goroutines = %v", v)
	}
	ev := lines[1]
	if ev["type"] != "event" || ev["name"] != "cap.hit" {
		t.Fatalf("bad event line: %v", ev)
	}
	if _, hasDur := ev["dur_us"]; hasDur {
		t.Fatal("event line carries dur_us")
	}
	if evAttrs := ev["attrs"].(map[string]any); len(evAttrs) != 1 {
		t.Fatalf("event attrs %v, want only its own", evAttrs)
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

// A write failure is kept: Close reports it, and so does every Flush after.
func TestJSONLWriteErrorSticky(t *testing.T) {
	tr := NewJSONL(&failWriter{n: 10})
	for i := 0; i < 4; i++ {
		tr.Span("x").End()
	}
	if err := tr.Close(); err == nil {
		t.Fatal("Close hid the write failure")
	}
	if err := tr.Flush(); err == nil {
		t.Fatal("error not sticky across Flush calls")
	}
}

func TestJSONLUnencodableAttr(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONL(&buf)
	tr.Event("bad", Any("fn", func() {})) // func is not JSON-encodable
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	var obj map[string]any
	if err := json.Unmarshal(buf.Bytes(), &obj); err != nil {
		t.Fatalf("error line is not valid JSON: %v (%q)", err, buf.String())
	}
	if obj["type"] != "error" {
		t.Fatalf("degraded line type = %v, want error", obj["type"])
	}
}

func TestJSONLConcurrent(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONL(&buf)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				sp := tr.Span("work", Int("worker", i))
				sp.End(Int("j", j))
			}
		}(i)
	}
	wg.Wait()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 400 {
		t.Fatalf("got %d lines, want 400", len(lines))
	}
	for _, l := range lines {
		if !json.Valid([]byte(l)) {
			t.Fatalf("interleaved write corrupted a line: %q", l)
		}
	}
}

func TestJSONLFlushEveryLeavesParseablePrefix(t *testing.T) {
	// A crashed run never reaches Close; every record up to the last flush
	// interval must already be on the underlying writer as whole,
	// parseable lines (the exact cadence is recordlog's contract test).
	var buf bytes.Buffer
	tr := NewJSONL(&buf)
	const n = 2*flushCadence + 3
	for i := 0; i < n; i++ {
		tr.Event("cluster.superstep", Int("iteration", i))
	}
	// No Flush, no Close: simulate the crash. The buffer may have spilled a
	// torn final line on its own; only whole lines count.
	whole := buf.String()[:strings.LastIndexByte(buf.String(), '\n')+1]
	lines := strings.Split(strings.TrimSpace(whole), "\n")
	if len(lines) < 2*flushCadence || len(lines) > n {
		t.Fatalf("got %d flushed lines, want %d..%d", len(lines), 2*flushCadence, n)
	}
	for i, line := range lines {
		var obj map[string]any
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("flushed line %d is not valid JSON: %v (%q)", i, err, line)
		}
		if obj["name"] != "cluster.superstep" {
			t.Fatalf("line %d name = %v", i, obj["name"])
		}
	}
}

package servestats

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"bpart/internal/graph"
	"bpart/internal/telemetry"
)

func TestRecorderWritesParseableLog(t *testing.T) {
	var buf bytes.Buffer
	reg := telemetry.NewRegistry()
	rec := NewRecorder(2, &buf, reg)
	for i := 0; i < 5; i++ {
		start := rec.Start()
		rec.End(start, EndpointLookup, 7, i%2, 1, 200)
	}
	start := rec.Start()
	rec.End(start, EndpointWalk, 3, -1, 1, 400)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Records) != 6 || l.Truncated {
		t.Fatalf("parsed %d records, truncated=%v", len(l.Records), l.Truncated)
	}
	for i, r := range l.Records {
		if r.Seq != int64(i+1) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
	}
	if l.Records[5].Part != -1 || l.Records[5].Status != 400 {
		t.Fatalf("error record = %+v", l.Records[5])
	}
	if got := reg.Counter("serving_requests_total").Value(); got != 6 {
		t.Fatalf("serving_requests_total = %d", got)
	}
	if got := reg.Counter("serving_errors_total").Value(); got != 1 {
		t.Fatalf("serving_errors_total = %d", got)
	}
	if rec.Inflight() != 0 {
		t.Fatalf("inflight = %d after all Ends", rec.Inflight())
	}
}

func TestRecorderWindowsReset(t *testing.T) {
	rec := NewRecorder(2, nil, nil)
	start := rec.Start()
	rec.End(start, EndpointLookup, 1, 0, 1, 200)
	w1 := rec.WindowSnapshot()
	if w1[0].Endpoint != EndpointLookup || w1[0].Count != 1 {
		t.Fatalf("first window = %+v", w1)
	}
	w2 := rec.WindowSnapshot()
	if w2[0].Count != 0 {
		t.Fatalf("window did not reset: %+v", w2)
	}
}

// A swap may raise k past the recorder's: a request on a part beyond it is
// still recorded, with its part, in the request log.
func TestRecorderGrowsForSwappedParts(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(2, &buf, nil)
	start := rec.Start()
	rec.End(start, EndpointLookup, 1, 7, 2, 200) // part beyond initial k
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Records) != 1 || l.Records[0].Part != 7 || l.Records[0].Version != 2 {
		t.Fatalf("post-swap request recorded as %+v", l.Records)
	}
	if w := rec.WindowSnapshot(); w[0].Count != 1 {
		t.Fatalf("post-swap request missing from the window: %+v", w)
	}
}

func TestRecorderStickyWriteError(t *testing.T) {
	rec := NewRecorder(1, failWriter{}, nil)
	start := rec.Start()
	rec.End(start, EndpointLookup, 1, 0, 1, 200)
	if err := rec.Flush(); err == nil || !strings.Contains(err.Error(), "request log") {
		t.Fatalf("sticky write error not surfaced: %v", err)
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errShort }

var errShort = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "sink full" }

func TestNilRecorderIsNoop(t *testing.T) {
	var rec *Recorder
	start := rec.Start()
	if !start.IsZero() {
		t.Fatal("nil recorder read the clock")
	}
	rec.End(start, EndpointLookup, 1, 0, 1, 200)
	if rec.Inflight() != 0 || rec.WindowSnapshot() != nil {
		t.Fatal("nil recorder accumulated state")
	}
	if rec.Flush() != nil || rec.Close() != nil {
		t.Fatal("nil recorder errored")
	}
}

// TestDisabledPathAllocatesNothing is the disabled-path guarantee from the
// issue: with serving stats off (nil recorder), the per-request hook sites
// allocate no stats records.
func TestDisabledPathAllocatesNothing(t *testing.T) {
	var rec *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		start := rec.Start()
		rec.End(start, EndpointLookup, 1, 0, 1, 200)
		_ = rec.Inflight()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates %.1f objects per request, want 0", allocs)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(4, &buf, nil)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 200; i++ {
				start := rec.Start()
				rec.End(start, Endpoints[i%len(Endpoints)], graph.VertexID(i), i%4, 1, 200)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Records) != 1600 {
		t.Fatalf("parsed %d records, want 1600", len(l.Records))
	}
	seen := map[int64]bool{}
	for _, r := range l.Records {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d", r.Seq)
		}
		seen[r.Seq] = true
	}
}

func TestRecorderLatencyIsPlausible(t *testing.T) {
	var buf bytes.Buffer
	rec := NewRecorder(1, &buf, nil)
	start := rec.Start()
	time.Sleep(2 * time.Millisecond)
	rec.End(start, EndpointLookup, 1, 0, 1, 200)
	if w := rec.WindowSnapshot(); w[0].P999 < 1000 {
		t.Fatalf("2ms request windowed as %.0fµs", w[0].P999)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	l, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if us := l.Records[0].LatencyUS; us < 1000 {
		t.Fatalf("2ms request logged as %.0fµs", us)
	}
}

package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// call (the layers themselves are not instrumented). Spans of one job
// share Run; the job's own span has Parent 0 and every layer call names
// the span that caused it.
type span struct {
	Run      int              `json:"run"`
	ID       int              `json:"id"`
	Parent   int              `json:"parent"`
	Workload string           `json:"workload"`
	Name     string           `json:"name"`
	StartNS  int64            `json:"start_ns"`
	EndNS    int64            `json:"end_ns"`
	Counts   map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory and writes them out when the benchmark
// ends. A nil *tracer is tracing off: begin returns a no-op handle.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	runs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef addresses one open span; the zero value ignores end.
type spanRef struct {
	tr *tracer
	id int // 1-based index into tr.spans
}

func (t *tracer) newRun() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.runs++
	return t.runs
}

func (t *tracer) begin(run int, parent spanRef, workload, name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Run: run, ID: len(t.spans) + 1, Parent: parent.id,
		Workload: workload, Name: name,
		StartNS: time.Since(t.t0).Nanoseconds(),
	})
	return spanRef{tr: t, id: len(t.spans)}
}

// end closes the span and attaches counts given as name, value pairs.
func (r spanRef) end(counts ...any) {
	if r.tr == nil {
		return
	}
	now := time.Since(r.tr.t0).Nanoseconds()
	r.tr.mu.Lock()
	defer r.tr.mu.Unlock()
	sp := &r.tr.spans[r.id-1]
	sp.EndNS = now
	for i := 0; i+1 < len(counts); i += 2 {
		if sp.Counts == nil {
			sp.Counts = map[string]int64{}
		}
		sp.Counts[counts[i].(string)] = counts[i+1].(int64)
	}
}

// cover returns, per traced job of the workload, the time its direct
// child spans cover as a share of the job span: 1 − cover is the job time
// no layer call accounts for.
func (t *tracer) cover(workload string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	jobDur := map[int]float64{}
	jobID := map[int]int{}
	for _, sp := range t.spans {
		if sp.Workload == workload && sp.Parent == 0 {
			jobDur[sp.Run] = float64(sp.EndNS - sp.StartNS)
			jobID[sp.Run] = sp.ID
		}
	}
	child := map[int]float64{}
	for _, sp := range t.spans {
		if id, ok := jobID[sp.Run]; ok && sp.Parent == id {
			child[sp.Run] += float64(sp.EndNS - sp.StartNS)
		}
	}
	var out []float64
	for run := 1; run <= t.runs; run++ {
		if d := jobDur[run]; d > 0 {
			out = append(out, child[run]/d)
		}
	}
	return out
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			return fmt.Errorf("trace %s: %w", path, err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace %s: %w", path, err)
	}
	return f.Close()
}

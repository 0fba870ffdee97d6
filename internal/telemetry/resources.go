package telemetry

import (
	"runtime"
	rmetrics "runtime/metrics"
	"sync"
)

// gcCPUMetric is cumulative GC CPU seconds, read next to MemStats. A
// runtime that does not export it gets no res_gc_cpu_us attr.
const gcCPUMetric = "/cpu/classes/gc/total:cpu-seconds"

// usage is one runtime snapshot's cumulative counters.
type usage struct {
	mallocs, totalAlloc, pauseNs uint64
	numGC                        uint32
	gcCPU                        float64 // seconds; -1 when unsupported
}

// resources snapshots the runtime for a JSONL trace. A snapshot is a
// ReadMemStats, which stops the world briefly: spans take two, events none.
type resources struct {
	mu  sync.Mutex       // guards the scratch below; spans end concurrently
	ms  runtime.MemStats // scratch, reused under mu
	cpu []rmetrics.Sample
}

func newResources() *resources {
	return &resources{cpu: []rmetrics.Sample{{Name: gcCPUMetric}}}
}

// take snapshots the runtime into r.ms. Callers hold r.mu.
func (r *resources) take() usage {
	runtime.ReadMemStats(&r.ms)
	u := usage{mallocs: r.ms.Mallocs, totalAlloc: r.ms.TotalAlloc, pauseNs: r.ms.PauseTotalNs, numGC: r.ms.NumGC, gcCPU: -1}
	if rmetrics.Read(r.cpu); r.cpu[0].Value.Kind() == rmetrics.KindFloat64 {
		u.gcCPU = r.cpu[0].Value.Float64()
	}
	return u
}

// resSpan is a JSONL span. End appends the res_* attrs of the interval
// since the span opened: allocations, GC cycles, pause and CPU over it,
// and the live heap at its end.
type resSpan struct {
	Span
	res   *resources
	begin usage
}

func (s *resSpan) End(attrs ...Attr) {
	r, b := s.res, s.begin
	r.mu.Lock()
	e := r.take()
	attrs = append(attrs[:len(attrs):len(attrs)],
		Int64("res_allocs", int64(e.mallocs-b.mallocs)),
		Int64("res_alloc_bytes", int64(e.totalAlloc-b.totalAlloc)),
		Int64("res_heap_bytes", int64(r.ms.HeapAlloc)),
		Int64("res_gc_cycles", int64(e.numGC-b.numGC)),
		Float("res_gc_pause_us", float64(e.pauseNs-b.pauseNs)/1e3))
	if b.gcCPU >= 0 && e.gcCPU >= 0 {
		attrs = append(attrs, Float("res_gc_cpu_us", (e.gcCPU-b.gcCPU)*1e6))
	}
	r.mu.Unlock()
	s.Span.End(attrs...)
}

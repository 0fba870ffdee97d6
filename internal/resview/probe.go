package resview

import (
	"io"
	"runtime"
	rmetrics "runtime/metrics"
	"sync"

	"bpart/internal/telemetry"
)

// gcCPUMetric is the runtime/metrics sample the probe reads next to
// MemStats: cumulative GC CPU seconds. Older or unusual runtimes may not
// export it; the probe degrades to omitting the field.
const gcCPUMetric = "/cpu/classes/gc/total:cpu-seconds"

// Probe captures runtime resource deltas around named phases. It is a
// telemetry.Tracer decorating the one trace writer, telemetry.JSONL: every
// span and event a component emits is written as that trace record with
// its scalar attrs plus the deltas as res_* attrs, so the probe attaches
// wherever a tracer does (alone, or beside the -trace file through
// telemetry.Tee) and its output is a trace.
//
// Capture is observation-only: a probed run's deterministic artifacts
// (assignments, a trace's audit events, BENCH sections) are identical to
// an unprobed run's. Write and flush errors are sticky and surfaced by
// Flush/Close, never silently dropped.
//
// A nil *Probe is safe: every method is a no-op, so callers can thread an
// optional probe without guarding.
type Probe struct {
	mu   sync.Mutex // serializes snapshots and emission: records land in snapshot order
	out  *telemetry.JSONL
	ms   runtime.MemStats // scratch, reused under mu
	laps map[string]snap  // per-name lap baselines
	// origin is the probe's creation snapshot: the baseline of the first
	// lap of every name.
	origin snap
	cpu    []rmetrics.Sample // the runtime/metrics sample buffer for gcCPUMetric
	failed bool              // a flush failed: the log is lost, so takeLocked stops stopping the world for it
}

// snap is one point-in-time resource snapshot.
type snap struct {
	sw         *telemetry.Stopwatch
	mallocs    uint64
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
	gcCPU      float64 // cumulative seconds; -1 when unsupported
}

// NewProbe returns a probe writing a resource trace to w. The caller owns
// w; call Close (or Flush) before reading the output, and check its error —
// a full disk must not silently truncate the log.
func NewProbe(w io.Writer) *Probe {
	p := &Probe{
		out:  telemetry.NewJSONL(w),
		laps: map[string]snap{},
		cpu:  []rmetrics.Sample{{Name: gcCPUMetric}},
	}
	p.origin = p.takeLocked()
	return p
}

// takeLocked snapshots the runtime. Callers hold p.mu (or, in NewProbe,
// have exclusive access).
func (p *Probe) takeLocked() snap {
	if p.failed {
		return p.origin
	}
	runtime.ReadMemStats(&p.ms)
	s := snap{
		sw:         telemetry.NewStopwatch(),
		mallocs:    p.ms.Mallocs,
		totalAlloc: p.ms.TotalAlloc,
		numGC:      p.ms.NumGC,
		pauseNs:    p.ms.PauseTotalNs,
		gcCPU:      -1,
	}
	if rmetrics.Read(p.cpu); p.cpu[0].Value.Kind() == rmetrics.KindFloat64 {
		s.gcCPU = p.cpu[0].Value.Float64()
	}
	return s
}

// Enabled implements telemetry.Tracer; a nil probe records nothing.
func (p *Probe) Enabled() bool { return p != nil }

// Span implements telemetry.Tracer: the begin snapshot is taken now, and
// End closes the inner span with the deltas since.
func (p *Probe) Span(name string, attrs ...telemetry.Attr) telemetry.Span {
	if p == nil {
		return telemetry.Nop().Span(name)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return &span{p: p, begin: p.takeLocked(), inner: p.out.Span(name, scalars(attrs)...)}
}

// span is one open Span observation over the inner trace span.
type span struct {
	p     *Probe
	begin snap
	inner telemetry.Span
}

// Annotate implements telemetry.Span.
func (s *span) Annotate(attrs ...telemetry.Attr) { s.inner.Annotate(scalars(attrs)...) }

// End implements telemetry.Span. The span's wall time is the record's own
// dur_us, so it is not written a second time.
func (s *span) End(attrs ...telemetry.Attr) {
	p := s.p
	p.mu.Lock()
	defer p.mu.Unlock()
	s.inner.End(p.deltasLocked(scalars(attrs), s.begin, p.takeLocked())...)
	p.flushLocked()
}

// Event implements telemetry.Tracer: the inner event plus the deltas of
// the lap it closes — everything since the previous event with the same
// name, or since the probe's creation for the first. Baselines are kept
// per name, so the laps of one stream (cluster supersteps) interleaving
// with spans or with another stream do not corrupt each other.
func (p *Probe) Event(name string, attrs ...telemetry.Attr) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	begin, ok := p.laps[name]
	if !ok {
		begin = p.origin
	}
	end := p.takeLocked()
	p.laps[name] = end
	out := append(scalars(attrs), telemetry.Float("res_wall_us", begin.sw.Seconds()*1e6))
	p.out.Event(name, p.deltasLocked(out, begin, end)...)
	p.flushLocked()
}

// flushLocked pushes the record just written through to the file. Records
// are per-phase, not per-vertex, so unlike the trace's 256-record cadence
// the cost is negligible and a crashed run keeps its whole prefix, with at
// worst a torn final line. The writer keeps its first failure and returns
// it from every later Flush, the caller's included.
func (p *Probe) flushLocked() { p.failed = p.out.Flush() != nil }

// scalars copies the scalar attrs, with room for the eight res_* attrs. A
// trace event's structured payloads (a superstep's per-machine arrays and
// pairs matrix) belong to the trace, not to a log whose records are
// resource deltas.
func scalars(attrs []telemetry.Attr) []telemetry.Attr {
	out := make([]telemetry.Attr, 0, len(attrs)+8)
	for _, a := range attrs {
		if a.Scalar() {
			out = append(out, a)
		}
	}
	return out
}

// deltasLocked appends the res_* attrs of the interval begin→end to attrs.
// Callers hold p.mu and have just taken end, so its MemStats still sit in
// p.ms and HeapAlloc is read from there.
func (p *Probe) deltasLocked(attrs []telemetry.Attr, begin, end snap) []telemetry.Attr {
	attrs = append(attrs,
		telemetry.Int64("res_allocs", int64(end.mallocs-begin.mallocs)),
		telemetry.Int64("res_alloc_bytes", int64(end.totalAlloc-begin.totalAlloc)),
		telemetry.Int64("res_heap_bytes", int64(p.ms.HeapAlloc)),
		telemetry.Int64("res_gc_cycles", int64(end.numGC-begin.numGC)),
		telemetry.Float("res_gc_pause_us", float64(end.pauseNs-begin.pauseNs)/1e3),
		telemetry.Int("res_goroutines", runtime.NumGoroutine()))
	if begin.gcCPU >= 0 && end.gcCPU >= 0 {
		attrs = append(attrs, telemetry.Float("res_gc_cpu_us", (end.gcCPU-begin.gcCPU)*1e6))
	}
	return attrs
}

// Flush drains buffered records to the underlying writer. It returns the
// first error any record write hit, so a truncated log is never silent.
func (p *Probe) Flush() error {
	if p == nil {
		return nil
	}
	return p.out.Flush()
}

// Close flushes; the underlying writer is the caller's to close.
func (p *Probe) Close() error { return p.Flush() }

var _ telemetry.Tracer = (*Probe)(nil)

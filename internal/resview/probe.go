package resview

import (
	"encoding/json"
	"io"
	"runtime"
	rmetrics "runtime/metrics"
	"sync"

	"bpart/internal/recordlog"
	"bpart/internal/telemetry"
)

// gcCPUMetric is the runtime/metrics sample the probe reads next to
// MemStats: cumulative GC CPU seconds. Older or unusual runtimes may not
// export it; the probe degrades to omitting the field.
const gcCPUMetric = "/cpu/classes/gc/total:cpu-seconds"

// Probe captures runtime resource deltas around named phases and writes
// one versioned JSONL `resource` record per phase to its sink. It is a
// telemetry.Tracer sink: every span a component opens becomes one span
// record and every event one lap record, so it attaches wherever a tracer
// does (alone, or beside the JSONL trace through telemetry.Tee) and the
// resource log's phase names are the trace's span and event names.
//
// Capture is observation-only: a probed run's deterministic artifacts
// (assignments, traces, audit logs, BENCH sections) are byte-identical to
// an unprobed run's. Each record is written as one complete line and
// flushed, so a crashed run leaves at worst a torn final line — exactly
// what Read tolerates. Write and flush errors are sticky and surfaced by
// Flush/Close, never silently dropped.
//
// A nil *Probe is safe: every method is a no-op, so callers can thread an
// optional probe without guarding.
type Probe struct {
	mu   sync.Mutex
	log  *recordlog.Writer
	seq  int64
	ms   runtime.MemStats // scratch, reused under mu
	laps map[string]snap  // per-name lap baselines
	// origin is the probe's creation snapshot: the baseline of the first
	// lap of every name.
	origin snap
	// cpu holds the runtime/metrics sample buffer; gcCPUOK degrades to
	// false the first time the runtime reports the metric unsupported.
	cpu     []rmetrics.Sample
	gcCPUOK bool
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

// NewProbe returns a probe writing resource records to w. The caller owns
// w; call Close (or Flush) before reading the output, and check its error —
// a full disk must not silently truncate the log.
func NewProbe(w io.Writer) *Probe {
	p := &Probe{
		// Flush per record: resource records are per-phase, not
		// per-vertex, so the cost is negligible and a crashed run keeps its
		// whole prefix.
		log:     recordlog.NewWriter(w, 1),
		laps:    map[string]snap{},
		cpu:     []rmetrics.Sample{{Name: gcCPUMetric}},
		gcCPUOK: true,
	}
	p.origin = p.takeLocked()
	return p
}

// takeLocked snapshots the runtime. Callers hold p.mu (or, in NewProbe,
// have exclusive access).
func (p *Probe) takeLocked() snap {
	runtime.ReadMemStats(&p.ms)
	s := snap{
		sw:         telemetry.NewStopwatch(),
		mallocs:    p.ms.Mallocs,
		totalAlloc: p.ms.TotalAlloc,
		numGC:      p.ms.NumGC,
		pauseNs:    p.ms.PauseTotalNs,
		gcCPU:      -1,
	}
	if p.gcCPUOK {
		rmetrics.Read(p.cpu)
		if p.cpu[0].Value.Kind() == rmetrics.KindFloat64 {
			s.gcCPU = p.cpu[0].Value.Float64()
		} else {
			p.gcCPUOK = false
		}
	}
	return s
}

// Enabled implements telemetry.Tracer; a nil probe records nothing.
func (p *Probe) Enabled() bool { return p != nil }

// Span implements telemetry.Tracer: the begin snapshot is taken now, and
// End emits one KindSpan record under the span's name.
func (p *Probe) Span(name string, attrs ...telemetry.Attr) telemetry.Span {
	if p == nil {
		return telemetry.Nop().Span(name)
	}
	p.mu.Lock()
	begin := p.takeLocked()
	p.mu.Unlock()
	return &span{p: p, name: name, begin: begin, attrs: append([]telemetry.Attr(nil), attrs...)}
}

// span is one open Span observation.
type span struct {
	p     *Probe
	name  string
	begin snap
	mu    sync.Mutex // guards attrs; Annotate may race with End
	attrs []telemetry.Attr
}

// Annotate implements telemetry.Span.
func (s *span) Annotate(attrs ...telemetry.Attr) {
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// End implements telemetry.Span.
func (s *span) End(attrs ...telemetry.Attr) {
	s.Annotate(attrs...)
	p := s.p
	p.mu.Lock()
	end := p.takeLocked()
	p.emitLocked(KindSpan, s.name, s.begin, end, s.attrs)
	p.mu.Unlock()
}

// Event implements telemetry.Tracer: one KindLap record covering
// everything since the previous event with the same name, or since the
// probe's creation for the first. Baselines are kept per name, so the laps
// of one stream (cluster supersteps) interleaving with spans or with
// another stream do not corrupt each other.
func (p *Probe) Event(name string, attrs ...telemetry.Attr) {
	if p == nil {
		return
	}
	p.mu.Lock()
	begin, ok := p.laps[name]
	if !ok {
		begin = p.origin
	}
	end := p.takeLocked()
	p.laps[name] = end
	p.emitLocked(KindLap, name, begin, end, attrs)
	p.mu.Unlock()
}

// emitLocked writes one record. Callers hold p.mu. The end snapshot's
// MemStats still sit in p.ms, so HeapAlloc is read from there. Only scalar
// attrs are kept: a trace event's structured payloads (a superstep's
// per-machine arrays and pairs matrix) belong to the trace, not to a log
// whose records are resource deltas.
func (p *Probe) emitLocked(kind, phase string, begin, end snap, attrs []telemetry.Attr) {
	jr := jsonRecord{
		V:          SchemaVersion,
		Type:       "resource",
		Seq:        p.seq,
		Kind:       kind,
		Phase:      phase,
		WallUS:     begin.sw.Seconds() * 1e6,
		Allocs:     int64(end.mallocs - begin.mallocs),
		AllocBytes: int64(end.totalAlloc - begin.totalAlloc),
		HeapBytes:  int64(p.ms.HeapAlloc),
		GCCycles:   int64(end.numGC - begin.numGC),
		GCPauseUS:  float64(end.pauseNs-begin.pauseNs) / 1e3,
		Goroutines: runtime.NumGoroutine(),
	}
	p.seq++
	if begin.gcCPU >= 0 && end.gcCPU >= 0 {
		jr.GCCPUUS = (end.gcCPU - begin.gcCPU) * 1e6
	}
	if len(attrs) > 0 {
		jr.Attrs = make(map[string]any, len(attrs))
		for _, a := range attrs {
			if a.Scalar() {
				jr.Attrs[a.Key] = a.Value()
			}
		}
	}
	line, err := json.Marshal(jr)
	if err != nil {
		// An unencodable attr (a NaN float) should not kill the probed
		// run; degrade to a minimal record that keeps the stream parseable.
		jr.Attrs = nil
		if line, err = json.Marshal(jr); err != nil {
			p.log.Fail(err)
			return
		}
	}
	p.log.Line(line)
}

// Flush drains buffered records to the underlying writer. It returns the
// first error any record write hit, so a truncated log is never silent.
func (p *Probe) Flush() error {
	if p == nil {
		return nil
	}
	return p.log.Flush()
}

// Close flushes; the underlying writer is the caller's to close.
func (p *Probe) Close() error { return p.Flush() }

var _ telemetry.Tracer = (*Probe)(nil)

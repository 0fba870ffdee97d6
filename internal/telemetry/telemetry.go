// Package telemetry is the repo's cross-cutting instrumentation layer: a
// structured tracer for phases and BSP supersteps, a counter/gauge registry
// that folds a trace (fold.go) and has Prometheus-style and expvar-compatible
// exports, and an HTTP debug surface (pprof + metrics).
//
// The design goal is near-zero cost when disabled. The default tracer is a
// no-op whose Span/Event calls never allocate (empty-struct interface
// values are free); hot loops accumulate into local integers and publish
// once per phase; counters are single atomic adds and are nil-safe, so an
// uninstrumented code path pays one predictable branch.
//
// The paper's evaluation revolves around internal quantities — per-layer
// piece counts during combining (Fig 8/9), per-machine compute/comm/waiting
// per superstep (Figs 12/13) — and this package is how the pipeline exposes
// them without printf archaeology: BPart emits one span per combining
// layer, the streaming engine one span per stream with cap-hit counters,
// and the simulated cluster one span per superstep carrying the full
// IterationStats timing.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"bpart/internal/recordlog"
)

// attrKind discriminates Attr payloads so scalar attributes avoid the
// interface boxing an `any` field would force.
type attrKind uint8

const (
	kindString attrKind = iota
	kindInt
	kindFloat
	kindBool
	kindAny
)

// Attr is one key/value annotation on a span or event. Scalars are stored
// unboxed; Any covers structured payloads (e.g. per-machine slices).
type Attr struct {
	Key  string
	kind attrKind
	str  string
	num  int64
	flt  float64
	any  any
}

// String returns a string attribute.
func String(key, v string) Attr { return Attr{Key: key, kind: kindString, str: v} }

// Int returns an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, kind: kindInt, num: int64(v)} }

// Int64 returns a 64-bit integer attribute.
func Int64(key string, v int64) Attr { return Attr{Key: key, kind: kindInt, num: v} }

// Float returns a float attribute.
func Float(key string, v float64) Attr { return Attr{Key: key, kind: kindFloat, flt: v} }

// Bool returns a boolean attribute.
func Bool(key string, v bool) Attr {
	a := Attr{Key: key, kind: kindBool}
	if v {
		a.num = 1
	}
	return a
}

// Any returns an attribute holding an arbitrary JSON-encodable value, such
// as a per-machine timing slice. It boxes; keep it off hot paths.
func Any(key string, v any) Attr { return Attr{Key: key, kind: kindAny, any: v} }

// Scalar reports whether the attribute holds a string, number or bool
// rather than a structured Any payload.
func (a Attr) Scalar() bool { return a.kind != kindAny }

// Value returns the attribute's payload as an interface value.
func (a Attr) Value() any {
	switch a.kind {
	case kindString:
		return a.str
	case kindInt:
		return a.num
	case kindFloat:
		return a.flt
	case kindBool:
		return a.num != 0
	default:
		return a.any
	}
}

// Record is one emitted trace record: an instantaneous event or a closed
// span with its duration.
type Record struct {
	Time  time.Time
	Span  bool // false = instantaneous event
	Name  string
	Dur   time.Duration // spans only
	Attrs []Attr
}

// Attr returns the value of the named attribute, or nil.
func (r *Record) Attr(key string) any {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Value()
		}
	}
	return nil
}

// Tracer receives structured spans and events. Implementations must be
// safe for concurrent use.
type Tracer interface {
	// Enabled reports whether records are actually recorded. Hot paths
	// may use it to skip attribute assembly entirely.
	Enabled() bool
	// Span opens a named span; the returned Span must be Ended exactly
	// once. Spans may be open concurrently from multiple goroutines.
	Span(name string, attrs ...Attr) Span
	// Event records an instantaneous event.
	Event(name string, attrs ...Attr)
}

// Span is an open trace span.
type Span interface {
	// Annotate attaches attributes before End.
	Annotate(attrs ...Attr)
	// End closes the span, recording its wall-clock duration.
	End(attrs ...Attr)
}

// nopTracer is the zero-overhead default: Span returns an empty-struct
// Span, so neither call allocates.
type nopTracer struct{}

func (nopTracer) Enabled() bool             { return false }
func (nopTracer) Span(string, ...Attr) Span { return nopSpan{} }
func (nopTracer) Event(string, ...Attr)     {}

type nopSpan struct{}

func (nopSpan) Annotate(...Attr) {}
func (nopSpan) End(...Attr)      {}

// Nop returns the no-op tracer.
func Nop() Tracer { return nopTracer{} }

// Safe returns t, or the no-op tracer when t is nil, so callers can store
// an optional Tracer and use it unconditionally.
func Safe(t Tracer) Tracer {
	if t == nil {
		return Nop()
	}
	return t
}

// Instrumentable is implemented by components (partitioners, engines) that
// accept a tracer and a metrics registry after construction. Batch
// components hold one instrument, Tee(tr, m); m stays a parameter only until
// a change that may edit benchmark/ drops its two-argument calls (ROADMAP 7(a)).
type Instrumentable interface {
	SetTelemetry(tr Tracer, m *Registry)
}

// recorder is the sink side shared by the real tracers.
type recorder interface {
	record(Record)
}

// span is the live-span implementation for recording tracers.
type span struct {
	rec   recorder
	name  string
	start time.Time
	mu    sync.Mutex
	attrs []Attr
}

func (s *span) Annotate(attrs ...Attr) {
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

func (s *span) End(attrs ...Attr) {
	s.mu.Lock()
	all := append(s.attrs, attrs...)
	s.attrs = nil
	s.mu.Unlock()
	s.rec.record(Record{
		Time:  s.start,
		Span:  true,
		Name:  s.name,
		Dur:   time.Since(s.start),
		Attrs: all,
	})
}

func startSpan(rec recorder, name string, attrs []Attr) Span {
	// Copy: the span outlives the call, and a caller reusing its variadic
	// backing array would otherwise rewrite the span's attributes.
	return &span{rec: rec, name: name, start: time.Now(), attrs: append([]Attr(nil), attrs...)}
}

// Memory is an in-process tracer for tests: it retains every record.
type Memory struct {
	mu      sync.Mutex
	records []Record
}

// NewMemory returns an empty in-memory tracer.
func NewMemory() *Memory { return &Memory{} }

// Enabled implements Tracer.
func (m *Memory) Enabled() bool { return true }

// Span implements Tracer.
func (m *Memory) Span(name string, attrs ...Attr) Span { return startSpan(m, name, attrs) }

// Event implements Tracer.
func (m *Memory) Event(name string, attrs ...Attr) {
	m.record(Record{Time: time.Now(), Name: name, Attrs: append([]Attr(nil), attrs...)})
}

func (m *Memory) record(r Record) {
	m.mu.Lock()
	m.records = append(m.records, r)
	m.mu.Unlock()
}

// Records returns a snapshot of everything recorded so far.
func (m *Memory) Records() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Record(nil), m.records...)
}

// Find returns the records with the given name.
func (m *Memory) Find(name string) []Record {
	var out []Record
	for _, r := range m.Records() {
		if r.Name == name {
			out = append(out, r)
		}
	}
	return out
}

// Reset discards all records.
func (m *Memory) Reset() {
	m.mu.Lock()
	m.records = nil
	m.mu.Unlock()
}

// JSONL streams records as one JSON object per line:
//
//	{"ts":"2026-08-06T10:11:12.13Z","type":"span","name":"bpart.layer","dur_us":812.4,"attrs":{"layer":1,"pieces":16}}
//
// Lines go through a recordlog.Writer that flushes every flushCadence
// records, so a run that dies without Close still leaves a parseable prefix
// (tracestat additionally tolerates a torn final line from a crash
// mid-write); call Close (or Flush) before reading the output.
type JSONL struct {
	log *recordlog.Writer
}

// flushCadence is the trace's flush cadence in records: per-superstep
// and per-layer spans are frequent enough that flushing each one would
// show in a traced run's wall time.
const flushCadence = 256

// NewJSONL returns a tracer writing JSON lines to w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{log: recordlog.NewWriter(w, flushCadence)}
}

// Enabled implements Tracer.
func (t *JSONL) Enabled() bool { return true }

// Span implements Tracer.
func (t *JSONL) Span(name string, attrs ...Attr) Span { return startSpan(t, name, attrs) }

// Event implements Tracer.
func (t *JSONL) Event(name string, attrs ...Attr) {
	t.record(Record{Time: time.Now(), Name: name, Attrs: append([]Attr(nil), attrs...)})
}

// jsonRecord is the wire shape of one JSONL line.
type jsonRecord struct {
	TS    string         `json:"ts"`
	Type  string         `json:"type"`
	Name  string         `json:"name"`
	DurUS *float64       `json:"dur_us,omitempty"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

func (t *JSONL) record(r Record) {
	jr := jsonRecord{
		TS:   r.Time.UTC().Format(time.RFC3339Nano),
		Type: "event",
		Name: r.Name,
	}
	if r.Span {
		jr.Type = "span"
		us := float64(r.Dur) / float64(time.Microsecond)
		jr.DurUS = &us
	}
	if len(r.Attrs) > 0 {
		jr.Attrs = make(map[string]any, len(r.Attrs))
		for _, a := range r.Attrs {
			jr.Attrs[a.Key] = a.Value()
		}
	}
	line, err := json.Marshal(jr)
	if err != nil {
		// An unencodable Any payload should not kill the traced run;
		// degrade to an error line that keeps the stream parseable.
		line = []byte(fmt.Sprintf(`{"ts":%q,"type":"error","name":%q}`, jr.TS, r.Name))
	}
	t.log.Line(line)
}

// Flush drains buffered lines to the underlying writer. It returns the
// first error any record write hit, so a truncated trace is never silent.
func (t *JSONL) Flush() error { return t.log.Flush() }

// Close flushes; the underlying writer is the caller's to close.
func (t *JSONL) Close() error { return t.Flush() }

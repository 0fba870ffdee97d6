// Package traceview is the read/analyze half of the repo's observability
// story: internal/telemetry writes JSONL traces (-trace; every span record
// carries its runtime resource deltas as res_* attrs) and traceview is
// their one reader.
//
// It parses the JSONL schema back into typed records, reconstructs span
// nesting from wall-clock containment, decodes the per-superstep
// IterationStats the simulated cluster emits, and derives the quantities
// the paper's evaluation asks about — which machine bounds each BSP
// barrier (straggler attribution), how each machine contributes to the
// waiting-time ratio of Fig 13, and where the run's critical path spends
// its time. cmd/tracestat is the CLI over this package. No gate reads a
// trace: simulated regressions are gated by the cmp of the deterministic
// BENCH artifact.
package traceview

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"bpart/internal/recordlog"
)

// Record is one parsed trace line.
type Record struct {
	Time  time.Time
	Type  string // "span", "event" or "error" (a degraded unencodable record)
	Name  string
	DurUS float64 // spans only
	// Attrs is the record's annotation object, with the Float/Int/Str
	// accessors.
	recordlog.Attrs
}

// End returns the span's end time (its start time for events).
func (r *Record) End() time.Time {
	return r.Time.Add(time.Duration(r.DurUS * float64(time.Microsecond)))
}

// Floats returns the named attribute as a float slice.
func (r *Record) Floats(key string) ([]float64, bool) { return floats(r.Attrs[key]) }

// Ints returns the named attribute as an int64 slice.
func (r *Record) Ints(key string) ([]int64, bool) { return ints(r.Attrs[key]) }

// floats converts a decoded JSON array ([]any) of numbers; a non-array or
// a non-numeric element fails the decode.
func floats(v any) ([]float64, bool) {
	raw, ok := v.([]any)
	if !ok {
		return nil, false
	}
	out := make([]float64, len(raw))
	for i, e := range raw {
		f, ok := e.(float64)
		if !ok {
			return nil, false
		}
		out[i] = f
	}
	return out, true
}

// ints is floats truncated to int64.
func ints(v any) ([]int64, bool) {
	fs, ok := floats(v)
	if !ok {
		return nil, false
	}
	out := make([]int64, len(fs))
	for i, f := range fs {
		out[i] = int64(f)
	}
	return out, true
}

// Trace is a fully parsed JSONL trace.
type Trace struct {
	Records []Record
	// Truncated reports that the final line was torn — the writing
	// process died mid-write (telemetry.JSONL writes whole lines, so
	// only the last line of a crashed run can be damaged). The parsed
	// prefix is complete and usable.
	Truncated bool
}

// Spans returns the span records with the given name, in file order.
func (t *Trace) Spans(name string) []*Record { return t.filter("span", name) }

// Events returns the event records with the given name, in file order.
func (t *Trace) Events(name string) []*Record { return t.filter("event", name) }

func (t *Trace) filter(typ, name string) []*Record {
	var out []*Record
	for i := range t.Records {
		r := &t.Records[i]
		if r.Type == typ && r.Name == name {
			out = append(out, r)
		}
	}
	return out
}

// Bounds returns the earliest start and latest end across all records (and
// false for an empty trace).
func (t *Trace) Bounds() (start, end time.Time, ok bool) {
	for i := range t.Records {
		r := &t.Records[i]
		if !ok || r.Time.Before(start) {
			start = r.Time
		}
		if e := r.End(); !ok || e.After(end) {
			end = e
		}
		ok = true
	}
	return start, end, ok
}

// jsonRecord mirrors the telemetry.JSONL wire shape.
type jsonRecord struct {
	TS    string         `json:"ts"`
	Type  string         `json:"type"`
	Name  string         `json:"name"`
	DurUS *float64       `json:"dur_us"`
	Attrs map[string]any `json:"attrs"`
}

// Read parses a JSONL trace. A damaged or incomplete final line (a run
// that crashed mid-write) is tolerated and flagged via Trace.Truncated;
// damage anywhere earlier is a hard error, since silently skipping
// interior records would skew every derived statistic.
func Read(r io.Reader) (*Trace, error) {
	records, truncated, err := recordlog.Records(r, "traceview", "trace", parseLine)
	if err != nil {
		return nil, err
	}
	return &Trace{Records: records, Truncated: truncated}, nil
}

// ReadFile parses the JSONL trace at path.
func ReadFile(path string) (*Trace, error) { return recordlog.ReadFile(path, Read) }

func parseLine(line []byte) (Record, error) {
	var jr jsonRecord
	if err := json.Unmarshal(line, &jr); err != nil {
		return Record{}, err
	}
	switch jr.Type {
	case "span", "event", "error":
	case "resource":
		// The resource log format from before it became a trace: say so,
		// not `bad ts ""`.
		return Record{}, fmt.Errorf("schema-v1 resource log from before the resource log became a trace; re-record with -trace")
	default:
		return Record{}, fmt.Errorf("unknown record type %q", jr.Type)
	}
	ts, err := time.Parse(time.RFC3339Nano, jr.TS)
	if err != nil {
		return Record{}, fmt.Errorf("bad ts %q: %w", jr.TS, err)
	}
	rec := Record{Time: ts, Type: jr.Type, Name: jr.Name, Attrs: jr.Attrs}
	if jr.DurUS != nil {
		rec.DurUS = *jr.DurUS
	}
	return rec, nil
}

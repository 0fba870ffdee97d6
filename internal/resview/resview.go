// Package resview is the runtime-resource half of the repo's
// observability story: a Probe (a telemetry.Tracer sink, the one hook
// interface the deterministic packages hold) snapshots real machine
// state — wall clock, allocations, live heap, GC cycles and pauses,
// goroutine counts — around every trace span (partition streams, BPart
// combining layers, engine and walk runs, bench experiments) and between
// consecutive events of one name (cluster supersteps) and streams the
// deltas as versioned JSONL `resource` records; this package reads them
// back and derives the phase self-time breakdown, alloc/GC attribution and
// the Parallel Speedup curves. cmd/tracestat's `resources` subcommand
// is the CLI over it.
//
// Everything here is host-dependent by nature and therefore lives outside
// the determinism boundary: capture is strictly opt-in, an unobserved run
// holds the no-op tracer, and no resource record ever flows into the
// trace, audit or BENCH byte-identity paths. For tests that compare probed
// runs, Log.StripWallClock zeroes every host-dependent field, mirroring
// the BENCH artifact's -deterministic normalization.
package resview

import (
	"encoding/json"
	"fmt"
	"io"

	"bpart/internal/recordlog"
)

// SchemaVersion is the resource-record schema version. Bump it on any
// incompatible field change; the reader rejects versions it does not
// handle. The schema itself is documented in EXPERIMENTS.md.
const SchemaVersion = 1

// Record kinds: a span covers one Tracer.Span/End pair; a lap covers
// everything since the previous Tracer.Event of the same name.
const (
	KindSpan = "span"
	KindLap  = "lap"
)

// ScalingPhase is the phase name the Parallel Speedup harness
// (internal/experiments) records one span per (scheme, workers) repetition
// under, its schemes namespaced as "Engine/Scheme" (e.g. "PageRank/BPart");
// Curves derives the speedup plot from records with this name. The wire
// name predates the harness and is kept so existing logs still plot.
const ScalingPhase = "scaling.replay"

// Record is one parsed resource record: the runtime's resource deltas over
// one named phase.
type Record struct {
	// Seq is the probe's monotone emission index.
	Seq int64
	// Kind is KindSpan or KindLap.
	Kind string
	// Phase is the phase name ("partition.stream", "cluster.superstep",
	// "bench.experiment", ...).
	Phase string
	// WallUS is the phase's wall-clock self-time in microseconds.
	WallUS float64
	// Allocs and AllocBytes are the heap objects and bytes allocated
	// during the phase (runtime.MemStats Mallocs/TotalAlloc deltas).
	Allocs     int64
	AllocBytes int64
	// HeapBytes is the live heap at phase end (HeapAlloc).
	HeapBytes int64
	// GCCycles and GCPauseUS are the garbage-collection cycles completed
	// and stop-the-world pause time (µs) accrued during the phase.
	GCCycles  int64
	GCPauseUS float64
	// GCCPUUS is the GC CPU time (µs) accrued during the phase, from
	// runtime/metrics; 0 when the runtime does not expose it.
	GCCPUUS float64
	// Goroutines is the goroutine count at phase end.
	Goroutines int
	// Attrs carries the phase's annotations (k, workers, scheme, ...),
	// with the Float/Int/Str accessors.
	recordlog.Attrs
}

// Log is a fully parsed resource log.
type Log struct {
	Records []Record
	// Truncated reports that the final line was torn — the writing process
	// died mid-write (the Probe writes whole lines, so only the last line
	// of a crashed run can be damaged). The parsed prefix is complete and
	// usable.
	Truncated bool
}

// StripWallClock zeroes every host-dependent field of every record —
// wall clock, allocation and GC deltas, goroutine counts — leaving only
// the deterministic structure (seq, kind, phase, attrs). It is the
// BENCH artifact's -deterministic normalization applied to resource logs:
// two probed runs of the same workload strip to comparable logs.
func (l *Log) StripWallClock() {
	for i := range l.Records {
		r := &l.Records[i]
		r.WallUS = 0
		r.Allocs = 0
		r.AllocBytes = 0
		r.HeapBytes = 0
		r.GCCycles = 0
		r.GCPauseUS = 0
		r.GCCPUUS = 0
		r.Goroutines = 0
	}
}

// jsonRecord is the wire shape of one resource line. Fields marshal in
// declaration order, so probe output is layout-stable.
type jsonRecord struct {
	V          int            `json:"v"`
	Type       string         `json:"type"`
	Seq        int64          `json:"seq"`
	Kind       string         `json:"kind"`
	Phase      string         `json:"phase"`
	WallUS     float64        `json:"wall_us"`
	Allocs     int64          `json:"allocs"`
	AllocBytes int64          `json:"alloc_bytes"`
	HeapBytes  int64          `json:"heap_bytes"`
	GCCycles   int64          `json:"gc_cycles"`
	GCPauseUS  float64        `json:"gc_pause_us"`
	GCCPUUS    float64        `json:"gc_cpu_us,omitempty"`
	Goroutines int            `json:"goroutines"`
	Attrs      map[string]any `json:"attrs,omitempty"`
}

// Read parses a JSONL resource log under recordlog.Scan's tolerance
// contract: only a torn final line is tolerated (flagged via
// Log.Truncated), interior damage or an all-garbage first line is a hard
// error, and unknown schema versions are rejected.
func Read(r io.Reader) (*Log, error) {
	records, truncated, err := recordlog.Records(r, "resview", "resource", parseLine)
	if err != nil {
		return nil, err
	}
	return &Log{Records: records, Truncated: truncated}, nil
}

// ReadFile parses the JSONL resource log at path.
func ReadFile(path string) (*Log, error) { return recordlog.ReadFile(path, Read) }

func parseLine(line []byte) (Record, error) {
	var jr jsonRecord
	if err := json.Unmarshal(line, &jr); err != nil {
		return Record{}, err
	}
	if jr.Type != "resource" {
		return Record{}, fmt.Errorf("record type %q, want \"resource\"", jr.Type)
	}
	if jr.V != SchemaVersion {
		return Record{}, fmt.Errorf("resource record schema v%d, this reader handles v%d", jr.V, SchemaVersion)
	}
	if jr.Kind != KindSpan && jr.Kind != KindLap {
		return Record{}, fmt.Errorf("unknown resource record kind %q", jr.Kind)
	}
	if jr.Phase == "" {
		return Record{}, fmt.Errorf("resource record without a phase name")
	}
	if jr.WallUS < 0 {
		return Record{}, fmt.Errorf("negative wall_us %v", jr.WallUS)
	}
	return Record{
		Seq:        jr.Seq,
		Kind:       jr.Kind,
		Phase:      jr.Phase,
		WallUS:     jr.WallUS,
		Allocs:     jr.Allocs,
		AllocBytes: jr.AllocBytes,
		HeapBytes:  jr.HeapBytes,
		GCCycles:   jr.GCCycles,
		GCPauseUS:  jr.GCPauseUS,
		GCCPUUS:    jr.GCCPUUS,
		Goroutines: jr.Goroutines,
		Attrs:      jr.Attrs,
	}, nil
}

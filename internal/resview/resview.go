// Package resview is the runtime-resource half of the repo's
// observability story. It has no writer and no format of its own: the one
// trace writer, telemetry.JSONL, snapshots real machine state —
// allocations, live heap, GC cycles, pauses and CPU —
// when a span starts and when it ends (partition streams, BPart combining
// layers, engine and walk runs, bench experiments) and writes the deltas
// as res_* attrs on the span record. traceview.Read reads the trace, and
// this package derives each phase's inclusive wall time and alloc/GC
// attribution from those attrs. cmd/tracestat's `resources` subcommand is
// the CLI over it.
//
// Everything here is host-dependent by nature and therefore lives outside
// the determinism boundary: only span records carry res_* attrs, next to
// their ts and dur_us, and an unobserved run holds the no-op tracer, so no
// res_* value ever flows into an assignment, an audit event or the BENCH
// byte-identity path.
package resview

import (
	"fmt"
	"strings"

	"bpart/internal/traceview"
)

// decode returns the resource numbers of r, keyed by attr name: every attr
// under the res_ prefix, plus "res_wall_us" for a span, whose wall time is
// the record's own dur_us (an event in a log recorded before the resource
// deltas rode on the trace's spans carries its lap, the wall time since
// the previous event of its name, as that attr). It returns nil for a
// record with no res_* attr, such as an event, which every view here
// skips. The file is outside input, so what the trace writer never writes
// is an error rather than a number: a res_* value that is not a number, or
// a negative one (dur_us included).
func decode(r *traceview.Record) (map[string]float64, error) {
	var u map[string]float64
	bad := "" // the first offender in key order, so the error is the same every run
	for key, raw := range r.Attrs {
		if !strings.HasPrefix(key, "res_") {
			continue
		}
		if u == nil {
			u = map[string]float64{"res_wall_us": r.DurUS}
		}
		v, ok := raw.(float64)
		if (!ok || v < 0) && (bad == "" || key < bad) {
			bad = key
		}
		u[key] = v
	}
	switch {
	case bad != "":
		return nil, fmt.Errorf("resview: %s record %q: %s = %v, want a non-negative number", r.Type, r.Name, bad, r.Attrs[bad])
	case u["res_wall_us"] < 0:
		return nil, fmt.Errorf("resview: %s record %q: negative dur_us %v", r.Type, r.Name, r.DurUS)
	}
	return u, nil
}

// Package resview mirrors bpart/internal/resview: the runtime-resource
// observer whose entire job is reading the host clock and runtime. Like
// telemetry, it sits outside the deterministic set — wall-clock reads here
// are the feature, not a leak — so nothing may be flagged. The boundary
// holds in the other direction: the deterministic packages never import
// resview, they only hold telemetry.Tracer (the probe is one of its sinks,
// writing the spans it sees as a trace of its own with res_* attrs).
package resview

import "time"

// PhaseStart stamps a phase begin; the observability side may read the
// clock freely.
func PhaseStart() time.Time { return time.Now() }

// PhaseWallUS measures a phase's wall-clock self-time.
func PhaseWallUS(start time.Time) float64 {
	return float64(time.Since(start).Microseconds())
}

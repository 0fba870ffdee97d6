// Package resview mirrors bpart/internal/resview: the runtime-resource
// view whose entire subject is host time and runtime state. Like
// telemetry, it sits outside the deterministic set — wall-clock reads here
// are the feature, not a leak — so nothing may be flagged. The boundary
// holds in the other direction: the deterministic packages never import
// resview, they only hold telemetry.Tracer (whose trace writer records
// each span's res_* attrs).
package resview

import "time"

// PhaseStart stamps a phase begin; the observability side may read the
// clock freely.
func PhaseStart() time.Time { return time.Now() }

// PhaseWallUS measures a phase's wall-clock self-time.
func PhaseWallUS(start time.Time) float64 {
	return float64(time.Since(start).Microseconds())
}

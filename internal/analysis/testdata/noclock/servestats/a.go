// Package servestats mirrors bpart/internal/servestats: the serving-layer
// observer whose entire job is stamping request latencies off the host
// clock. Like telemetry and traceview, it sits outside the deterministic
// set — wall-clock reads here are the feature, not a leak — so nothing
// may be flagged. The boundary holds in the other direction: the
// deterministic packages drive serving through servestats.Play and never
// time requests themselves, and the BENCH serving section keeps no
// latency column.
package servestats

import "time"

// Start stamps a request begin; the observability side may read the clock
// freely.
func Start() time.Time { return time.Now() }

// LatencyUS measures a request's wall-clock duration in microseconds.
func LatencyUS(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Microsecond)
}

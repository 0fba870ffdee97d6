package telemetry

import "time"

// Stopwatch measures wall-clock durations for report columns.
//
// The deterministic packages (core, partition, cluster, engine, walk,
// fault, experiments) may not read the host clock directly — the noclock
// lint enforces it, because simulated time and bit-identical reruns are
// what the determinism gates stand on. Real elapsed-time measurements do
// belong in reports, though (Table 2's partitioner runtimes, for example),
// and telemetry is the sanctioned observability boundary: route them
// through a Stopwatch. The measured value is wall-clock and therefore
// host-dependent by nature; keeping every such read behind this one type
// makes that dependence auditable.
type Stopwatch struct {
	start time.Time
}

// NewStopwatch returns a stopwatch running since the moment of the call.
func NewStopwatch() *Stopwatch {
	return &Stopwatch{start: time.Now()}
}

// Elapsed returns the wall-clock time since the stopwatch started.
func (s *Stopwatch) Elapsed() time.Duration {
	return time.Since(s.start)
}

// Seconds returns Elapsed as a float64 second count, the unit the report
// tables print.
func (s *Stopwatch) Seconds() float64 {
	return s.Elapsed().Seconds()
}

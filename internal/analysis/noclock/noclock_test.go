package noclock_test

import (
	"testing"

	"bpart/internal/analysis/analysistest"
	"bpart/internal/analysis/noclock"
)

func TestSeededViolations(t *testing.T) {
	analysistest.Run(t, "../testdata/noclock/core", noclock.Analyzer)
}

// TestExperimentsStopwatchRoute pins the experiments idiom: raw time.Now
// / time.Since / time.Sleep are flagged inside the experiments scope,
// while wall-clock measurement routed through telemetry.NewStopwatch (the
// parallel speedup and scaling harnesses' route) stays clean.
func TestExperimentsStopwatchRoute(t *testing.T) {
	analysistest.Run(t, "../testdata/noclock/experiments", noclock.Analyzer)
}

func TestOutOfScopePackageIsExempt(t *testing.T) {
	analysistest.Run(t, "../testdata/noclock/other", noclock.Analyzer)
}

// TestServestatsIsExempt pins the serving-layer boundary: servestats is
// the package that stamps request latencies off the host clock on the
// serving surface's behalf, so — like telemetry — it must stay outside
// noclock's scope.
func TestServestatsIsExempt(t *testing.T) {
	analysistest.Run(t, "../testdata/noclock/servestats", noclock.Analyzer)
}

// TestSegmentNotSubstring pins scope matching to whole path segments: a
// package named clustering shares a prefix with the deterministic package
// cluster and must stay exempt.
func TestSegmentNotSubstring(t *testing.T) {
	analysistest.Run(t, "../testdata/noclock/clustering", noclock.Analyzer)
}

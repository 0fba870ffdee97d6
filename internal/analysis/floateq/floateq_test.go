package floateq_test

import (
	"testing"

	"bpart/internal/analysis/analysistest"
	"bpart/internal/analysis/floateq"
)

func TestSeededViolations(t *testing.T) {
	analysistest.Run(t, "../testdata/floateq/core", floateq.Analyzer)
}

func TestOutOfScopePackagesAreClean(t *testing.T) {
	analysistest.Run(t, "../testdata/floateq/other", floateq.Analyzer)
}

// TestSegmentNotSubstring pins scope matching to whole path segments: a
// package named coreutil shares a prefix with the balance-sensitive package
// core and must stay out of scope.
func TestSegmentNotSubstring(t *testing.T) {
	analysistest.Run(t, "../testdata/floateq/coreutil", floateq.Analyzer)
}

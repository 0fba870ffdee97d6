package errio_test

import (
	"testing"

	"bpart/internal/analysis/analysistest"
	"bpart/internal/analysis/errio"
)

func TestSeededViolations(t *testing.T) {
	analysistest.Run(t, "../testdata/errio/gio", errio.Analyzer)
}

func TestSeededViolationsRecordlog(t *testing.T) {
	analysistest.Run(t, "../testdata/errio/recordlog", errio.Analyzer)
}

func TestSeededViolationsReport(t *testing.T) {
	analysistest.Run(t, "../testdata/errio/report", errio.Analyzer)
}

func TestSeededViolationsPartaudit(t *testing.T) {
	analysistest.Run(t, "../testdata/errio/partaudit", errio.Analyzer)
}

func TestSeededViolationsCommview(t *testing.T) {
	analysistest.Run(t, "../testdata/errio/commview", errio.Analyzer)
}

func TestSeededViolationsTraceview(t *testing.T) {
	analysistest.Run(t, "../testdata/errio/traceview", errio.Analyzer)
}

func TestSeededViolationsServestats(t *testing.T) {
	analysistest.Run(t, "../testdata/errio/servestats", errio.Analyzer)
}

func TestOutOfScopePackagesAreClean(t *testing.T) {
	analysistest.Run(t, "../testdata/errio/other", errio.Analyzer)
}

// TestSegmentNotSubstring pins scope matching to whole path segments: a
// package named clustering shares a prefix with the I/O package cluster
// and must stay out of scope.
func TestSegmentNotSubstring(t *testing.T) {
	analysistest.Run(t, "../testdata/errio/clustering", errio.Analyzer)
}

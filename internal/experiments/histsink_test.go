package experiments

import (
	"testing"

	"bpart/internal/telemetry"
)

// The sink reads its histograms off the records whatever order they come
// in, and summarizes them sorted by name, leaving out any without samples.
func TestHistogramSinkSummariesSorted(t *testing.T) {
	var s HistogramSink
	tr := telemetry.Tee(nil, &s)
	tr.Span("walk.run", telemetry.Float("sim_time_us", 99)).End(telemetry.Float("sim_time_us", 7))
	tr.Span("engine.pagerank").End(telemetry.Float("sim_time_us", 5))
	tr.Event("cluster.superstep",
		telemetry.Float("time_us", 3),
		telemetry.Any("messages", []int64{0, 4}),
		telemetry.Any("pairs", [][]int64{{0, 4}, {0, 0}}))
	sums := s.Summaries()
	want := []struct {
		name  string
		count int64
		sum   float64
	}{
		{"cluster_machine_message_batch", 2, 4},
		{"cluster_superstep_time_us", 1, 3},
		{"comm_pair_batch_messages", 1, 4},
		{"walk_run_sim_time_us", 1, 7},
	}
	if len(sums) != len(want) {
		t.Fatalf("summaries = %+v, want %d", sums, len(want))
	}
	for i, w := range want {
		if got := sums[i]; got.Name != w.name || got.Count != w.count || got.Sum != w.sum {
			t.Errorf("summary %d = %+v, want %s with %d samples summing to %v", i, got, w.name, w.count, w.sum)
		}
	}
	var off *HistogramSink
	if telemetry.Tee(off).Enabled() {
		t.Error("a nil sink survived the tee")
	}
}

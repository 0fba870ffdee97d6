package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"bpart/internal/telemetry"
)

func TestWidthsDefaultHostIndependent(t *testing.T) {
	if got, want := (Options{}).widths(), []int{1, 2, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("default widths %v, want %v", got, want)
	}
}

// Every measurement of the sweep is a bit-identity proof with a positive
// wall time, and the 1-worker point is each curve's speedup baseline. The
// sweep's engines run quiet: a JSONL trace handed in as the run's tracer
// records nothing, so the ladder never reaches a trace.
func TestParallelSweepRunsQuiet(t *testing.T) {
	var buf bytes.Buffer
	trace := telemetry.NewJSONL(&buf)
	ms, err := runParallel(Options{Scale: testScale, Tracer: trace}, []string{"Chunk-V"}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Close(); err != nil {
		t.Fatal(err)
	}
	if want := len(parallelEngines) * 2; len(ms) != want {
		t.Fatalf("got %d measurements, want %d", len(ms), want)
	}
	for _, m := range ms {
		if !m.Identical || m.WallUS <= 0 {
			t.Fatalf("bad measurement %+v", m)
		}
		if m.Workers == 1 && m.Speedup != 1 {
			t.Fatalf("1-worker point is not the baseline: %+v", m)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("the quiet sweep wrote to the run's tracer:\n%s", buf.String())
	}
}

// Speedup is the 1-worker wall over each point's and efficiency is speedup
// per worker; without a 1-worker point both stay zero.
func TestDeriveSpeedups(t *testing.T) {
	curve := []ParallelMeasurement{{Workers: 1, WallUS: 800}, {Workers: 2, WallUS: 500}, {Workers: 4, WallUS: 400}}
	deriveSpeedups(curve)
	for i, want := range [][2]float64{{1, 1}, {1.6, 0.8}, {2, 0.5}} {
		if m := curve[i]; m.Speedup != want[0] || m.Efficiency != want[1] {
			t.Errorf("%d workers: speedup %v efficiency %v, want %v", m.Workers, m.Speedup, m.Efficiency, want)
		}
	}
	baseless := []ParallelMeasurement{{Workers: 2, WallUS: 100}}
	deriveSpeedups(baseless)
	if baseless[0].Speedup != 0 || baseless[0].Efficiency != 0 {
		t.Errorf("baseless curve: %+v", baseless[0])
	}
}

func TestParallelSweepRejectsBadWidth(t *testing.T) {
	if _, err := runParallel(Options{Scale: testScale}, []string{"Chunk-V"}, []int{0}); err == nil {
		t.Fatal("accepted width 0")
	}
}

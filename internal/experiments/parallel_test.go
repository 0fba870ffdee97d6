package experiments

import (
	"bytes"
	"reflect"
	"testing"

	"bpart/internal/resview"
	"bpart/internal/telemetry"
	"bpart/internal/traceview"
)

func TestWidthsDefaultHostIndependent(t *testing.T) {
	if got, want := (Options{}).widths(), []int{1, 2, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("default widths %v, want %v", got, want)
	}
}

// The sweep's ScalingPhase spans are the only input `tracestat resources`
// draws its speedup curves from.
func TestParallelSweepFeedsResourceCurves(t *testing.T) {
	var buf bytes.Buffer
	probe := resview.NewProbe(&buf)
	ms, err := runParallel(Options{Scale: testScale}, probe, []string{"Chunk-V"}, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Close(); err != nil {
		t.Fatal(err)
	}
	engines := len(parallelEngines)
	if len(ms) != engines*2 {
		t.Fatalf("got %d measurements, want %d", len(ms), engines*2)
	}
	for _, m := range ms {
		if !m.Identical || m.WallUS <= 0 {
			t.Fatalf("bad measurement %+v", m)
		}
	}
	l, err := traceview.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// One span per engine × width × repetition, and nothing else: the
	// engines themselves run quiet.
	if want := engines * 2 * parallelReps; len(l.Records) != want {
		t.Fatalf("got %d resource records, want %d", len(l.Records), want)
	}
	for _, r := range l.Records {
		if r.Name != resview.ScalingPhase {
			t.Fatalf("unexpected phase %q", r.Name)
		}
	}
	curves := resview.Curves(l)
	if len(curves) != engines {
		t.Fatalf("got %d curves, want %d", len(curves), engines)
	}
	for _, c := range curves {
		if len(c.Points) != 2 || c.Points[0].Workers != 1 || c.Points[0].Speedup != 1 {
			t.Fatalf("%s: bad curve %+v", c.Scheme, c.Points)
		}
	}
}

func TestParallelSweepRejectsBadWidth(t *testing.T) {
	if _, err := runParallel(Options{Scale: testScale}, telemetry.Nop(), []string{"Chunk-V"}, []int{0}); err == nil {
		t.Fatal("accepted width 0")
	}
}

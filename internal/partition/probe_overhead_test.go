package partition

import (
	"runtime"
	"testing"

	"bpart/internal/telemetry"
)

// BenchmarkStream20k is the probe-overhead baseline: the streaming loop
// with no probe attached (the default everywhere).
func BenchmarkStream20k(b *testing.B) {
	g := twitterish(b)
	opt := StreamOptions{K: 8, C: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Stream(g, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStream20kNopProbe is the same loop with a no-op probe attached —
// the worst case for a disabled-but-wired hook site.
func BenchmarkStream20kNopProbe(b *testing.B) {
	g := twitterish(b)
	opt := StreamOptions{K: 8, C: 1, Probe: telemetry.NopProbe()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Stream(g, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// TestIdleProbeOverheadGate is the <5% overhead gate for the resource-probe
// hook sites: the hooks fire per phase (one BeginPhase/EndPhase pair per
// stream), never per vertex, so an idle probe must be indistinguishable
// from no probe. Measured as best-of-N with the two configurations
// interleaved, so scheduler noise and heap warm-up hit both alike; skipped
// in -short mode where a timing assertion is meaningless.
func TestIdleProbeOverheadGate(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short mode")
	}
	g := twitterish(t)
	measure := func(opt StreamOptions) float64 {
		// Each stream allocates the same amount, so collections would
		// otherwise phase-lock onto one of the two configurations.
		runtime.GC()
		sw := telemetry.NewStopwatch()
		for i := 0; i < 3; i++ {
			if _, err := Stream(g, opt); err != nil {
				t.Fatal(err)
			}
		}
		return sw.Seconds()
	}
	// Noise only ever inflates a measurement, so both minima converge on
	// the true cost from above: keep sampling until they agree, and fail
	// only if they still differ after maxReps.
	const minReps, maxReps = 5, 40
	opts := [2]StreamOptions{{K: 8, C: 1}, {K: 8, C: 1, Probe: telemetry.NopProbe()}}
	var best [2]float64 // base, probed
	var overhead float64
	for r := 0; r < maxReps; r++ {
		// Alternate which configuration goes first.
		for _, i := range [2]int{r % 2, 1 - r%2} {
			if s := measure(opts[i]); r == 0 || s < best[i] {
				best[i] = s
			}
		}
		if overhead = best[1]/best[0] - 1; r+1 >= minReps && overhead <= 0.05 {
			break
		}
	}
	base, probed := best[0], best[1]
	t.Logf("idle-probe overhead: base %.2fms, probed %.2fms, overhead %.2f%%",
		base*1e3, probed*1e3, overhead*100)
	if overhead > 0.05 {
		t.Fatalf("idle probe overhead %.2f%% exceeds the 5%% gate", overhead*100)
	}
}

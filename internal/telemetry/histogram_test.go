package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestHistogramBucketing(t *testing.T) {
	cases := []struct {
		v     float64
		upper float64 // inclusive upper bound of the bucket v must land in
	}{
		{0, math.Ldexp(1, histMinExp-1)},
		{-3, math.Ldexp(1, histMinExp-1)},
		{0.0004, math.Ldexp(1, histMinExp-1)}, // ≤ 2^-11: underflow
		{1, 1},                                // exact power of two: its own bucket
		{1.5, 2},
		{2, 2},
		{2.01, 4},
		{1000, 1024},
		{math.Ldexp(1, histMaxExp), math.Ldexp(1, histMaxExp)},
		{math.Ldexp(1, histMaxExp+3), math.Inf(1)}, // overflow
	}
	for _, c := range cases {
		idx := histBucketIndex(c.v)
		if got := histBucketUpper(idx); got != c.upper {
			t.Errorf("bucket upper for %g = %g, want %g (bucket %d)", c.v, got, c.upper, idx)
		}
		if idx > 0 && idx < histBuckets-1 {
			lower := histBucketUpper(idx - 1)
			if !(c.v > lower && c.v <= histBucketUpper(idx)) {
				t.Errorf("%g outside its bucket (%g, %g]", c.v, lower, histBucketUpper(idx))
			}
		}
	}
}

func TestHistogramObserveAndQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("superstep_time_us")
	for v := 1.0; v <= 100; v++ {
		h.Observe(v)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if h.Sum() != 5050 {
		t.Fatalf("sum = %g, want 5050", h.Sum())
	}
	if reg.Histogram("superstep_time_us") != h {
		t.Fatal("Histogram did not return the same instance")
	}
	// Log-bucket interpolation: p50 of 1..100 ranks at 50, which sits
	// 18/32 of the way through bucket (32,64], so the estimate is
	// 32·2^(18/32) ≈ 47.28 (the true p50 is 50; the old upper-bound
	// estimator said 64). Clamped quantiles stay exact at the extremes.
	wantP50 := 32 * math.Exp2(18.0/32)
	if got := h.Quantile(0.5); got != wantP50 {
		t.Fatalf("p50 = %g, want %g", got, wantP50)
	}
	// p99 ranks at 99, 35/36 through (64,128]: 64·2^(35/36) ≈ 125.9
	// overshoots the observed max and clamps to it.
	if got := h.Quantile(0.99); got != 100 {
		t.Fatalf("p99 = %g, want clamped max 100", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Fatalf("p0 = %g, want observed min 1", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Fatalf("p100 = %g, want observed max 100", got)
	}
	s := h.Summary()
	if s.Count != 100 || s.Min != 1 || s.Max != 100 || s.P50 != wantP50 {
		t.Fatalf("summary = %+v", s)
	}
}

// TestQuantileInterpolationPinned pins the interpolation formula on
// distributions small enough to derive by hand: the estimate for a rank in
// real bucket (lower, 2·lower] with prev observations before it and n
// inside must be exactly lower·2^((rank-prev)/n), clamped to [min, max].
func TestQuantileInterpolationPinned(t *testing.T) {
	t.Run("single bucket", func(t *testing.T) {
		var h Histogram
		// Ten values in (256, 512]: every quantile interpolates inside one
		// bucket, rank r → 256·2^(r/10).
		for i := 1; i <= 10; i++ {
			h.Observe(256 + float64(i)*25) // 281..506
		}
		for _, c := range []struct{ q, want float64 }{
			{0.1, 281}, // 256·2^(1/10) ≈ 274.4 undershoots the observed min
			{0.5, 256 * math.Exp2(5.0/10)},
			{0.9, 256 * math.Exp2(9.0/10)},
		} {
			if got := h.Quantile(c.q); got != c.want {
				t.Errorf("q=%g: got %g, want %g", c.q, got, c.want)
			}
		}
		// p100 clamps to the observed max, not the bucket edge 512.
		if got := h.Quantile(1); got != 506 {
			t.Errorf("p100 = %g, want 506", got)
		}
	})
	t.Run("two buckets", func(t *testing.T) {
		var h Histogram
		h.Observe(3) // (2,4]
		h.Observe(3)
		h.Observe(6) // (4,8]
		h.Observe(7)
		h.Observe(8)
		// p50 ranks at 3 (ceil(0.5·5)): first of the three in (4,8],
		// frac 1/3 → 4·2^(1/3).
		if got, want := h.Quantile(0.5), 4*math.Exp2(1.0/3); got != want {
			t.Errorf("p50 = %g, want %g", got, want)
		}
		// p20 ranks at 1, halfway through the two in (2,4] → 2·2^(1/2),
		// but the observed min 3 clamps it up.
		if got := h.Quantile(0.2); got != 3 {
			t.Errorf("p20 = %g, want clamped min 3", got)
		}
	})
	t.Run("underflow and overflow", func(t *testing.T) {
		var h Histogram
		h.Observe(0)
		h.Observe(math.Ldexp(1, histMaxExp+2))
		// Rank 1 lands in the underflow bucket, which has no finite lower
		// edge to interpolate against: it reports its upper edge 2^-11.
		if got, want := h.Quantile(0.5), math.Ldexp(1, histMinExp-1); got != want {
			t.Errorf("p50 = %g, want %g", got, want)
		}
		// Rank 2 lands in the overflow bucket: clamp to the observed max.
		if got, want := h.Quantile(1), math.Ldexp(1, histMaxExp+2); got != want {
			t.Errorf("p100 = %g, want %g", got, want)
		}
	})
}

// TestQuantileSeededDistribution pins exact estimates on a seeded
// splitmix64 stream (the xrand generator, inlined so telemetry keeps zero
// internal deps): 10k log-uniform draws over (2^-4, 2^12). The expected
// values are derived independently by replaying the stream into a plain
// sorted slice and applying the interpolation formula to the rank's
// bucket, so the test fails if either the bucketing or the interpolation
// drifts.
func TestQuantileSeededDistribution(t *testing.T) {
	const n = 10000
	state := uint64(42)
	next := func() float64 {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
		u := float64(z>>11) / (1 << 53)
		return math.Exp2(-4 + 16*u) // log-uniform in (2^-4, 2^12)
	}
	var h Histogram
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = next()
		h.Observe(vals[i])
	}
	min, max := vals[0], vals[0]
	for _, v := range vals {
		min = math.Min(min, v)
		max = math.Max(max, v)
	}
	// Independent expectation: count per exponent bucket, locate the rank,
	// interpolate geometrically.
	expect := func(q float64) float64 {
		rank := int(math.Ceil(q * n))
		if rank < 1 {
			rank = 1
		}
		counts := map[int]int{}
		for _, v := range vals {
			counts[histBucketIndex(v)]++
		}
		cum := 0
		for i := 0; i < histBuckets; i++ {
			prev := cum
			cum += counts[i]
			if cum < rank {
				continue
			}
			est := histBucketUpper(i-1) * math.Exp2(float64(rank-prev)/float64(counts[i]))
			return math.Max(min, math.Min(max, est))
		}
		return max
	}
	for _, q := range []float64{0.5, 0.95, 0.99, 0.999} {
		if got, want := h.Quantile(q), expect(q); got != want {
			t.Errorf("q=%g: got %g, want %g", q, got, want)
		}
	}
	// And the estimate must be within one bucket (a factor of 2) of the
	// true quantile of the underlying sample.
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	for _, q := range []float64{0.5, 0.95, 0.99, 0.999} {
		truth := sorted[int(math.Ceil(q*n))-1]
		est := h.Quantile(q)
		if est < truth/2 || est > truth*2 {
			t.Errorf("q=%g: estimate %g more than a bucket from true %g", q, est, truth)
		}
	}
}

func TestNilHistogramIsNoop(t *testing.T) {
	var reg *Registry
	h := reg.Histogram("x")
	h.Observe(3)
	if h.Count() != 0 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram accumulated")
	}
	if s := h.Summary(); s.Count != 0 {
		t.Fatalf("nil summary = %+v", s)
	}
}

func TestHistogramPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("walk_transfer_batch_walkers")
	h.Observe(3)
	h.Observe(4)
	h.Observe(900)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE walk_transfer_batch_walkers histogram",
		`walk_transfer_batch_walkers_bucket{le="4"} 2`,
		`walk_transfer_batch_walkers_bucket{le="1024"} 3`,
		`walk_transfer_batch_walkers_bucket{le="+Inf"} 3`,
		"walk_transfer_batch_walkers_sum 907",
		"walk_transfer_batch_walkers_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramInSnapshotIsJSONEncodable(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("cluster_superstep_time_us").Observe(12.5)
	snap := reg.Snapshot()
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("snapshot not JSON-encodable: %v", err)
	}
	if !strings.Contains(string(b), `"count":1`) {
		t.Fatalf("snapshot JSON missing histogram digest: %s", b)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				reg.Histogram("concurrent_us").Observe(float64(i*1000 + j))
			}
		}(i)
	}
	wg.Wait()
	if got := reg.Histogram("concurrent_us").Count(); got != 8000 {
		t.Fatalf("count = %d, want 8000", got)
	}
}

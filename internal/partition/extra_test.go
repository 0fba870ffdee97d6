package partition

import (
	"testing"
	"testing/quick"

	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/metrics"
)

func TestLDGBalancesVertices(t *testing.T) {
	g := twitterish(t)
	a := mustPartition(t, LDG{}, g, 8)
	r := metrics.NewReport(g, a.Parts, 8, false)
	if r.VertexBias > 0.11 {
		t.Fatalf("LDG vertex bias %v exceeds slack", r.VertexBias)
	}
	h := mustPartition(t, Hash{}, g, 8)
	if rc, hc := r.CutRatio, metrics.EdgeCutRatio(g, h.Parts); rc >= hc {
		t.Fatalf("LDG cut %v not below Hash %v", rc, hc)
	}
}

func TestLDGCapacityHard(t *testing.T) {
	g := twitterish(t)
	a := mustPartition(t, LDG{}, g, 4)
	vs, _ := graph.PartSizes(g, a.Parts, 4)
	cap := DefaultSlack * float64(g.NumVertices()) / 4
	for i, v := range vs {
		if float64(v) > cap+1 {
			t.Fatalf("part %d has %d vertices, cap %v", i, v, cap)
		}
	}
}

func TestLDGRegistered(t *testing.T) {
	p, err := Get("LDG")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "LDG" {
		t.Fatalf("Name = %q", p.Name())
	}
}

func TestGDTwoDimensionalBalance(t *testing.T) {
	g := twitterish(t)
	a := mustPartition(t, GD{}, g, 8)
	r := metrics.NewReport(g, a.Parts, 8, false)
	// GD's whole point (§5): balanced in both dimensions.
	if r.VertexBias > 0.2 {
		t.Fatalf("GD vertex bias %v", r.VertexBias)
	}
	if r.EdgeBias > 0.2 {
		t.Fatalf("GD edge bias %v", r.EdgeBias)
	}
	h := mustPartition(t, Hash{}, g, 8)
	if rc, hc := r.CutRatio, metrics.EdgeCutRatio(g, h.Parts); rc >= hc {
		t.Fatalf("GD cut %v not below Hash %v", rc, hc)
	}
}

func TestGDRejectsNonPowerOfTwo(t *testing.T) {
	g := gen.Ring(16)
	for _, k := range []int{3, 5, 6, 7, 12} {
		if _, err := (GD{}).Partition(g, k); err == nil {
			t.Errorf("GD accepted k=%d", k)
		}
	}
	if _, err := (GD{}).Partition(g, 1); err != nil {
		t.Fatalf("GD k=1: %v", err)
	}
}

func TestGDSmallBlocks(t *testing.T) {
	// k = n: every block degenerates to single vertices.
	g := gen.Ring(8)
	a := mustPartition(t, GD{}, g, 8)
	seen := map[int]int{}
	for _, p := range a.Parts {
		seen[p]++
	}
	if len(seen) != 8 {
		t.Fatalf("GD k=n produced %d non-empty parts", len(seen))
	}
}

func TestProjectBalance(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	deg := []float64{1, 1, 10, 10}
	projectBalance(x, deg, 22)
	var sum, dsum float64
	for i := range x {
		sum += x[i]
		dsum += x[i] * deg[i]
	}
	if sum > 1e-9 || sum < -1e-9 {
		t.Fatalf("Σx = %v after projection", sum)
	}
	// Σ deg·x = Σ (deg-mean)·x + mean·Σx = 0 + 0.
	if dsum > 1e-6 || dsum < -1e-6 {
		t.Fatalf("Σ deg·x = %v after projection", dsum)
	}
	projectBalance(nil, nil, 0) // must not panic
}

// Property: LDG and GD produce valid assignments on arbitrary graphs.
func TestQuickExtraSchemesValid(t *testing.T) {
	f := func(seed uint64, rawK uint8) bool {
		n := int(seed%120) + 4
		g, err := gen.ChungLu(gen.Config{NumVertices: n, AvgDegree: 4, Skew: 0.7, Seed: seed})
		if err != nil {
			return false
		}
		kl := int(rawK)%8 + 1
		a, err := (LDG{}).Partition(g, kl)
		if err != nil || a.Validate(g) != nil {
			return false
		}
		kg := 1 << (int(rawK) % 4) // 1,2,4,8
		a, err = (GD{}).Partition(g, kg)
		if err != nil || a.Validate(g) != nil {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLDG20k(b *testing.B) {
	g := twitterish(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (LDG{}).Partition(g, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGD20k(b *testing.B) {
	g := twitterish(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (GD{}).Partition(g, 8); err != nil {
			b.Fatal(err)
		}
	}
}

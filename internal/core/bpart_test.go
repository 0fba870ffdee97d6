package core

import (
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/metrics"
	"bpart/internal/partition"
)

func twitterish(t testing.TB) *graph.Graph {
	t.Helper()
	g, err := gen.ChungLu(gen.Config{
		NumVertices: 20000, AvgDegree: 16, Skew: 0.78, Locality: 0.45, Window: 512, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func defaultBPart(t testing.TB) *BPart {
	t.Helper()
	b, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestConfigNormalize(t *testing.T) {
	var c Config
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	if c != Default() {
		t.Fatalf("zero config did not pick defaults: %+v", c)
	}
	bad := []Config{
		{C: -0.1, Epsilon: 0.1},
		{C: 1.1, Epsilon: 0.1},
		{C: 0.5, SplitFactor: 3},
		{C: 0.5, SplitFactor: 1},
		{C: 0.5, SplitFactor: -2},
	}
	for i, cfg := range bad {
		if err := cfg.Normalize(); err == nil {
			t.Errorf("case %d: invalid config %+v accepted", i, cfg)
		}
	}
	// Explicit C=0 (edge-only) with another field set must be kept, not
	// replaced by defaults.
	c = Config{C: 0, Epsilon: 0.2}
	if err := c.Normalize(); err != nil {
		t.Fatal(err)
	}
	if c.C != 0 || c.Epsilon != 0.2 {
		t.Fatalf("explicit config overwritten: %+v", c)
	}
}

func TestPartitionArgs(t *testing.T) {
	b := defaultBPart(t)
	if _, err := b.Partition(nil, 2); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := b.Partition(gen.Ring(4), 0); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// The zero BPart (the facade exports the type, so callers can make one
// without New) must partition as New(Default()) does, not with C = ε = 0
// and no over-split.
func TestZeroBPartIsDefault(t *testing.T) {
	g, err := gen.ChungLu(gen.Config{NumVertices: 4000, AvgDegree: 12, Skew: 0.8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want, err := defaultBPart(t).Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := (&BPart{}).Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Parts, want.Parts) {
		t.Fatalf("zero BPart: vertex bias %.3f, New(Default()) %.3f",
			metrics.NewReport(g, got.Parts, 8, false).VertexBias, metrics.NewReport(g, want.Parts, 8, false).VertexBias)
	}
}

func TestPartitionK1(t *testing.T) {
	b := defaultBPart(t)
	g := gen.Ring(10)
	a, err := b.Partition(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	for v, p := range a.Parts {
		if p != 0 {
			t.Fatalf("vertex %d in part %d", v, p)
		}
	}
}

func TestTwoDimensionalBalance(t *testing.T) {
	g := twitterish(t)
	b := defaultBPart(t)
	for _, k := range []int{4, 8, 16} {
		a, err := b.Partition(g, k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := a.Validate(g); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		r := metrics.NewReport(g, a.Parts, k, false)
		// The paper's headline claim: bias below ~0.1 in BOTH
		// dimensions (Fig 10); we allow a small margin for the
		// synthetic graphs.
		if r.VertexBias > 0.15 {
			t.Errorf("k=%d: vertex bias %v, want ≤ 0.15", k, r.VertexBias)
		}
		if r.EdgeBias > 0.15 {
			t.Errorf("k=%d: edge bias %v, want ≤ 0.15", k, r.EdgeBias)
		}
		if r.VertexJain < 0.98 || r.EdgeJain < 0.98 {
			t.Errorf("k=%d: Jain fairness V=%v E=%v, want ≈1", k, r.VertexJain, r.EdgeJain)
		}
	}
}

func TestBeatsOneDimensionalSchemes(t *testing.T) {
	g := twitterish(t)
	k := 8
	b := defaultBPart(t)
	ab, err := b.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	rb := metrics.NewReport(g, ab.Parts, k, false)

	av, _ := partition.ChunkV{}.Partition(g, k)
	rv := metrics.NewReport(g, av.Parts, k, false)
	ae, _ := partition.ChunkE{}.Partition(g, k)
	re := metrics.NewReport(g, ae.Parts, k, false)

	if rb.EdgeBias >= rv.EdgeBias {
		t.Errorf("BPart edge bias %v not below Chunk-V's %v", rb.EdgeBias, rv.EdgeBias)
	}
	if rb.VertexBias >= re.VertexBias {
		t.Errorf("BPart vertex bias %v not below Chunk-E's %v", rb.VertexBias, re.VertexBias)
	}
}

func TestCutsFewerEdgesThanHash(t *testing.T) {
	g := twitterish(t)
	k := 8
	b := defaultBPart(t)
	ab, err := b.Partition(g, k)
	if err != nil {
		t.Fatal(err)
	}
	ah, _ := partition.Hash{}.Partition(g, k)
	cutB := metrics.EdgeCutRatio(g, ab.Parts)
	cutH := metrics.EdgeCutRatio(g, ah.Parts)
	if cutB >= cutH {
		t.Fatalf("BPart cut %v not below Hash cut %v (Table 3 shape)", cutB, cutH)
	}
}

func TestTraceStructure(t *testing.T) {
	g := twitterish(t)
	b := defaultBPart(t)
	k := 8
	a, tr, err := b.PartitionWithTrace(g, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Layers) == 0 {
		t.Fatal("no layers traced")
	}
	l1 := tr.Layers[0]
	if l1.Pieces != 2*k {
		t.Fatalf("layer 1 pieces = %d, want %d", l1.Pieces, 2*k)
	}
	if len(l1.PieceV) != l1.Pieces || len(l1.PieceE) != l1.Pieces {
		t.Fatalf("trace arrays wrong length")
	}
	if len(l1.Groups) != k {
		t.Fatalf("layer 1 combined groups = %d, want %d", len(l1.Groups), k)
	}
	totalFinal := 0
	for _, l := range tr.Layers {
		totalFinal += l.Finalized
	}
	if totalFinal != k {
		t.Fatalf("finalized %d groups across layers, want %d", totalFinal, k)
	}
	// The paper: convergence within 2–3 layers.
	if len(tr.Layers) > maxLayers {
		t.Fatalf("%d layers exceeds maxLayers", len(tr.Layers))
	}
	if a.K != k {
		t.Fatalf("K = %d", a.K)
	}
}

func TestInverseProportionality(t *testing.T) {
	// After phase 1 with c=½, pieces with fewer vertices must tend to have
	// more edges (Fig 8). Check rank correlation is clearly negative.
	g := twitterish(t)
	b := defaultBPart(t)
	_, tr, err := b.PartitionWithTrace(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	l1 := tr.Layers[0]
	neg, pos := 0, 0
	for i := 0; i < len(l1.PieceV); i++ {
		for j := i + 1; j < len(l1.PieceV); j++ {
			dv := l1.PieceV[i] - l1.PieceV[j]
			de := l1.PieceE[i] - l1.PieceE[j]
			switch {
			case dv*de < 0:
				neg++
			case dv*de > 0:
				pos++
			}
		}
	}
	if neg <= pos {
		t.Fatalf("piece V/E not inversely related: %d concordant vs %d discordant pairs", pos, neg)
	}
}

func TestSplitFactor4(t *testing.T) {
	g := twitterish(t)
	b, err := New(Config{C: 0.5, SplitFactor: 4})
	if err != nil {
		t.Fatal(err)
	}
	a, tr, err := b.PartitionWithTrace(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}
	if tr.Layers[0].Pieces != 16 {
		t.Fatalf("layer 1 pieces = %d, want 16", tr.Layers[0].Pieces)
	}
}

func TestKLargerThanVertices(t *testing.T) {
	g := gen.Ring(6)
	b := defaultBPart(t)
	a, err := b.Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}
	if a.K != 8 {
		t.Fatalf("K = %d", a.K)
	}
}

func TestRegularGraphTrivial(t *testing.T) {
	// On a ring every scheme is trivially 2D-balanced; BPart must not
	// make it worse.
	g := gen.Ring(1000)
	b := defaultBPart(t)
	a, err := b.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := metrics.NewReport(g, a.Parts, 4, false)
	if r.VertexBias > 0.11 || r.EdgeBias > 0.11 {
		t.Fatalf("ring partition unbalanced: %+v", r)
	}
}

func TestRegistryHasBPart(t *testing.T) {
	p, err := partition.Get("BPart")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "BPart" {
		t.Fatalf("Name = %q", p.Name())
	}
	g := gen.Ring(64)
	a, err := p.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestCombineRound(t *testing.T) {
	groups := []group{
		{v: 1, e: 40, pieces: []int{0}},
		{v: 4, e: 10, pieces: []int{1}},
		{v: 2, e: 30, pieces: []int{2}},
		{v: 3, e: 20, pieces: []int{3}},
	}
	out := combineRound(groups, 2, nil)
	if len(out) != 2 {
		t.Fatalf("got %d groups", len(out))
	}
	// lightest (v=1) merges with heaviest (v=4); v=2 with v=3.
	for _, g := range out {
		if g.v != 5 || g.e != 50 {
			t.Fatalf("unbalanced merge: %+v", out)
		}
	}
	// target >= len is the identity.
	same := combineRound(groups, 9, nil)
	if len(same) != 4 {
		t.Fatalf("identity round changed group count")
	}
	// Odd count: 3 groups → 2 (one merge, one passthrough).
	odd := combineRound(groups[:3], 2, nil)
	if len(odd) != 2 {
		t.Fatalf("odd merge gave %d groups", len(odd))
	}
}

// Property: for arbitrary scale-free graphs and part counts, BPart yields a
// valid complete assignment with exactly k parts and preserves totals.
func TestQuickBPartValid(t *testing.T) {
	f := func(seed uint64, rawK uint8) bool {
		n := int(seed%400) + 20
		k := int(rawK)%8 + 2
		g, err := gen.ChungLu(gen.Config{NumVertices: n, AvgDegree: 6, Skew: 0.75, Seed: seed})
		if err != nil {
			return false
		}
		b, err := New(Config{})
		if err != nil {
			return false
		}
		a, err := b.Partition(g, k)
		if err != nil {
			return false
		}
		if a.Validate(g) != nil {
			return false
		}
		vs, es := graph.PartSizes(g, a.Parts, k)
		tv, te := 0, 0
		for i := 0; i < k; i++ {
			tv += vs[i]
			te += es[i]
		}
		return tv == n && te == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: on reasonably sized scale-free graphs the two biases stay low
// — the paper's core claim, fuzzed across seeds.
func TestQuickBPartBalance(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := gen.ChungLu(gen.Config{
			NumVertices: 4000, AvgDegree: 12, Skew: 0.75, Locality: 0.4, Seed: seed,
		})
		if err != nil {
			return false
		}
		b, err := New(Config{})
		if err != nil {
			return false
		}
		a, err := b.Partition(g, 8)
		if err != nil {
			return false
		}
		r := metrics.NewReport(g, a.Parts, 8, false)
		return r.VertexBias < 0.25 && r.EdgeBias < 0.25
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBPart20k(b *testing.B) {
	g := twitterish(b)
	p := defaultBPart(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Partition(g, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// One Partition(g, 8) call on twitter-sim allocates within a budget per
// vertex, measured as its TotalAlloc delta: the assignment, one residual
// list that every layer filters in place, one stream state that every
// layer streams through and the refine pass's member lists. Each budget is
// this loop's measurement plus 10 % (23.6 B/vertex at scale 0.02, 25.9 at
// 0.7); a loop that gives each layer's stream a fresh |V|-long piece array
// reads 32.2 and 42.0. The layers streamed are pinned too: at 0.7
// (partition-k8's shape) layer 2 leaves a residual of 2 parts that no
// split can balance, so layer 3 is skipped.
func TestPartitionAllocBudget(t *testing.T) {
	for _, c := range []struct {
		scale  float64
		budget float64 // bytes per vertex
		layers []int
	}{
		{0.02, 26, []int{1, 2}},
		{0.7, 28.5, []int{1, 2, 4}},
	} {
		if c.scale > 0.1 && testing.Short() {
			continue
		}
		g, err := gen.Preset(gen.TwitterSim, c.scale)
		if err != nil {
			t.Fatal(err)
		}
		g.In() // the graph's own reverse, built once outside the call
		b := defaultBPart(t)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, tr, err := b.PartitionWithTrace(g, 8)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		perVertex := float64(after.TotalAlloc-before.TotalAlloc) / float64(g.NumVertices())
		t.Logf("scale %v: %.1f B/vertex", c.scale, perVertex)
		if perVertex > c.budget {
			t.Errorf("scale %v: one call allocated %.1f B/vertex, budget %v", c.scale, perVertex, c.budget)
		}
		var layers []int
		for _, l := range tr.Layers {
			layers = append(layers, l.Layer)
		}
		if !slices.Equal(layers, c.layers) {
			t.Errorf("scale %v: streamed layers %v, want %v", c.scale, layers, c.layers)
		}
	}
}

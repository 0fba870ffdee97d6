package gen

import (
	"math"
	"testing"
	"testing/quick"

	"bpart/internal/graph"
	"bpart/internal/xrand"
)

func TestChungLuShape(t *testing.T) {
	g, err := ChungLu(Config{NumVertices: 5000, AvgDegree: 20, Skew: 0.75, Locality: 0.4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 5000 {
		t.Fatalf("|V| = %d", g.NumVertices())
	}
	avg := g.AvgDegree()
	if avg < 18 || avg > 24 {
		t.Fatalf("avg degree %v, want ≈20", avg)
	}
	s := graph.ComputeStats(g)
	if s.MaxDegree < 100 {
		t.Fatalf("max degree %d: graph not scale-free", s.MaxDegree)
	}
	if s.GiniDegree < 0.3 {
		t.Fatalf("degree gini %v too uniform for a scale-free graph", s.GiniDegree)
	}
	if s.ZeroDegree != 0 {
		t.Fatalf("%d zero-out-degree vertices despite MinOutDegree=1", s.ZeroDegree)
	}
}

func TestChungLuDeterministic(t *testing.T) {
	cfg := Config{NumVertices: 1000, AvgDegree: 10, Skew: 0.7, Locality: 0.3, Seed: 42}
	g1, err1 := ChungLu(cfg)
	g2, err2 := ChungLu(cfg)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	e1, e2 := g1.EdgeList(), g2.EdgeList()
	if len(e1) != len(e2) {
		t.Fatalf("edge counts differ: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, e1[i], e2[i])
		}
	}
}

func TestChungLuIDDegreeCorrelation(t *testing.T) {
	g, err := ChungLu(Config{NumVertices: 10000, AvgDegree: 20, Skew: 0.8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The first 10% of IDs must own far more than 10% of edges — this is
	// the property that makes Chunk-V edge-skewed in the paper's Fig 3/6.
	firstDecile := 0
	for v := 0; v < 1000; v++ {
		firstDecile += g.OutDegree(graph.VertexID(v))
	}
	share := float64(firstDecile) / float64(g.NumEdges())
	if share < 0.3 {
		t.Fatalf("first-decile edge share %v, want ≥ 0.3 (hub concentration)", share)
	}
}

func TestChungLuShuffleBreaksCorrelation(t *testing.T) {
	g, err := ChungLu(Config{NumVertices: 10000, AvgDegree: 20, Skew: 0.8, Seed: 3, Shuffle: true})
	if err != nil {
		t.Fatal(err)
	}
	firstDecile := 0
	for v := 0; v < 1000; v++ {
		firstDecile += g.OutDegree(graph.VertexID(v))
	}
	share := float64(firstDecile) / float64(g.NumEdges())
	if share > 0.2 {
		t.Fatalf("shuffled graph still hub-concentrated: first-decile share %v", share)
	}
}

func TestChungLuNoSelfLoops(t *testing.T) {
	g, err := ChungLu(Config{NumVertices: 500, AvgDegree: 8, Skew: 0.7, Locality: 0.8, Window: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	g.Edges(func(e graph.Edge) bool {
		if e.Src == e.Dst {
			t.Errorf("self loop at %d", e.Src)
			return false
		}
		return true
	})
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{NumVertices: 0, AvgDegree: 1, Skew: 0.5},
		{NumVertices: 10, AvgDegree: 0, Skew: 0.5},
		{NumVertices: 10, AvgDegree: 1, Skew: 0},
		{NumVertices: 10, AvgDegree: 1, Skew: 1},
		{NumVertices: 10, AvgDegree: 1, Skew: 0.5, Locality: 1.5},
		{NumVertices: 10, AvgDegree: 1, Skew: 0.5, MinOutDegree: -1},
	}
	for i, cfg := range bad {
		if _, err := ChungLu(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestRMAT(t *testing.T) {
	g, err := RMAT(RMATConfig{Scale: 12, EdgeFactor: 8, A: 0.57, B: 0.19, C: 0.19, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4096 {
		t.Fatalf("|V| = %d, want 4096", g.NumVertices())
	}
	if g.NumEdges() != 4096*8 {
		t.Fatalf("|E| = %d", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	s := graph.ComputeStats(g)
	if s.GiniDegree < 0.3 {
		t.Fatalf("RMAT gini %v too uniform", s.GiniDegree)
	}
}

func TestRMATValidation(t *testing.T) {
	bad := []RMATConfig{
		{Scale: 0, EdgeFactor: 1, A: 0.25, B: 0.25, C: 0.25},
		{Scale: 30, EdgeFactor: 1, A: 0.25, B: 0.25, C: 0.25},
		{Scale: 4, EdgeFactor: 0, A: 0.25, B: 0.25, C: 0.25},
		{Scale: 4, EdgeFactor: 1, A: 0.9, B: 0.2, C: 0.2},
		{Scale: 4, EdgeFactor: 1, A: -0.1, B: 0.5, C: 0.5},
	}
	for i, cfg := range bad {
		if _, err := RMAT(cfg); err == nil {
			t.Errorf("case %d: invalid RMAT config accepted", i)
		}
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g, err := BarabasiAlbert(2000, 4, 11)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 2000 {
		t.Fatalf("|V| = %d", g.NumVertices())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Undirected: every arc has its reverse.
	g.Edges(func(e graph.Edge) bool {
		if !g.HasEdge(e.Dst, e.Src) {
			t.Errorf("missing reverse of %v", e)
			return false
		}
		return true
	})
	// Old vertices must be hubs.
	oldDeg, newDeg := 0, 0
	for v := 0; v < 100; v++ {
		oldDeg += g.OutDegree(graph.VertexID(v))
		newDeg += g.OutDegree(graph.VertexID(1900 + v))
	}
	if oldDeg <= newDeg {
		t.Fatalf("no preferential attachment: old=%d new=%d", oldDeg, newDeg)
	}
	if _, err := BarabasiAlbert(10, 10, 1); err == nil {
		t.Fatal("attach >= n accepted")
	}
	if _, err := BarabasiAlbert(0, 1, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestErdosRenyi(t *testing.T) {
	g, err := ErdosRenyi(3000, 10, 13)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 30000 {
		t.Fatalf("|E| = %d", g.NumEdges())
	}
	s := graph.ComputeStats(g)
	if s.GiniDegree > 0.25 {
		t.Fatalf("ER gini %v too skewed", s.GiniDegree)
	}
	g.Edges(func(e graph.Edge) bool {
		if e.Src == e.Dst {
			t.Errorf("ER self loop at %d", e.Src)
		}
		return true
	})
	if _, err := ErdosRenyi(1, 5, 1); err == nil {
		t.Fatal("n=1 accepted")
	}
}

func TestRing(t *testing.T) {
	g := Ring(5)
	if g.NumEdges() != 5 {
		t.Fatalf("|E| = %d", g.NumEdges())
	}
	for v := 0; v < 5; v++ {
		if !g.HasEdge(graph.VertexID(v), graph.VertexID((v+1)%5)) {
			t.Fatalf("ring arc %d missing", v)
		}
	}
}

func TestRelabel(t *testing.T) {
	g := Ring(4)
	perm := []int{2, 3, 0, 1}
	r := Relabel(g, perm)
	// 0->1 becomes 2->3, etc.
	if !r.HasEdge(2, 3) || !r.HasEdge(3, 0) || !r.HasEdge(0, 1) || !r.HasEdge(1, 2) {
		t.Fatalf("relabel wrong: %v", r.EdgeList())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad perm length did not panic")
		}
	}()
	Relabel(g, []int{0})
}

func TestPresets(t *testing.T) {
	for _, d := range Datasets() {
		cfg, err := PresetConfig(d, 0.02)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		g, err := ChungLu(cfg)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		want := cfg.AvgDegree
		got := g.AvgDegree()
		if math.Abs(got-want)/want > 0.25 {
			t.Errorf("%s: avg degree %v, want ≈%v", d, got, want)
		}
	}
	if _, err := PresetConfig("nope", 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	if _, err := PresetConfig(LJSim, 0); err == nil {
		t.Fatal("zero scale accepted")
	}
	if _, err := Preset(LJSim, -1); err == nil {
		t.Fatal("negative scale accepted")
	}
}

func TestPresetMinimumSize(t *testing.T) {
	cfg, err := PresetConfig(LJSim, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumVertices < 16 {
		t.Fatalf("preset floor violated: %d", cfg.NumVertices)
	}
}

// Property: for any valid small config, the generated graph validates, has
// no self loops, and hits the degree floor.
func TestQuickChungLuInvariants(t *testing.T) {
	f := func(seed uint64, rawN uint8, rawSkew uint8, rawLoc uint8) bool {
		cfg := Config{
			NumVertices: int(rawN)%200 + 10,
			AvgDegree:   4,
			Skew:        0.2 + 0.6*float64(rawSkew)/255,
			Locality:    float64(rawLoc) / 255,
			Window:      8,
			Seed:        seed,
		}
		g, err := ChungLu(cfg)
		if err != nil {
			return false
		}
		if g.Validate() != nil {
			return false
		}
		ok := true
		g.Edges(func(e graph.Edge) bool {
			if e.Src == e.Dst {
				ok = false
				return false
			}
			return true
		})
		for v := 0; v < g.NumVertices(); v++ {
			if g.OutDegree(graph.VertexID(v)) < 1 {
				return false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDrawDstWindowWraps(t *testing.T) {
	rng := xrand.New(1)
	alias := xrand.NewAlias([]float64{1, 1, 1, 1, 1})
	cfg := Config{Locality: 1.0, Window: 2}
	for i := 0; i < 1000; i++ {
		dst := drawDst(rng, alias, 0, 5, cfg, nil, nil, nil)
		if dst < 0 || dst >= 5 || dst == 0 {
			t.Fatalf("bad local draw %d", dst)
		}
	}
}

func TestDrawDstCommunity(t *testing.T) {
	rng := xrand.New(2)
	alias := xrand.NewAlias([]float64{1, 1, 1, 1})
	cfg := Config{CommunityProb: 1.0}
	community := []int32{0, 0, 1, 1}
	members := [][]int32{{0, 1}, {2, 3}}
	for i := 0; i < 500; i++ {
		dst := drawDst(rng, alias, 0, 4, cfg, community, members, make([]*xrand.Alias, 2))
		if dst != 1 {
			t.Fatalf("community draw from 0 gave %d, want 1", dst)
		}
	}
}

func TestCommunityEdgesClusterInCommunities(t *testing.T) {
	g, err := ChungLu(Config{
		NumVertices: 4000, AvgDegree: 12, Skew: 0.7,
		CommunityProb: 0.9, Communities: 20, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	// With 90% community edges and 20 communities, far more than the
	// random baseline 1/20 of edges stay within a community.
	same, total := 0, 0
	g.Edges(func(e graph.Edge) bool {
		cs := mix64(uint64(e.Src)^21^0xC0FFEE) % 20
		cd := mix64(uint64(e.Dst)^21^0xC0FFEE) % 20
		if cs == cd {
			same++
		}
		total++
		return true
	})
	if frac := float64(same) / float64(total); frac < 0.5 {
		t.Fatalf("intra-community edge fraction %v, want ≥ 0.5", frac)
	}
}

func TestConfigCommunityValidation(t *testing.T) {
	bad := []Config{
		{NumVertices: 10, AvgDegree: 1, Skew: 0.5, CommunityProb: -0.1},
		{NumVertices: 10, AvgDegree: 1, Skew: 0.5, CommunityProb: 0.6, Locality: 0.6},
		{NumVertices: 10, AvgDegree: 1, Skew: 0.5, Communities: -1},
	}
	for i, cfg := range bad {
		if _, err := ChungLu(cfg); err == nil {
			t.Errorf("case %d: invalid community config accepted", i)
		}
	}
}

func BenchmarkChungLu50k(b *testing.B) {
	cfg := Config{NumVertices: 50000, AvgDegree: 20, Skew: 0.75, Locality: 0.4, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ChungLu(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBarabasiAlbertDeterministic pins the same-seed rerun guarantee the
// generator lost for years to a map-ordered attachment loop: the chosen
// targets were attached (and fed back into the sampling pool) in map
// iteration order, so identical seeds grew different graphs.
func TestBarabasiAlbertDeterministic(t *testing.T) {
	g1, err1 := BarabasiAlbert(1500, 5, 7)
	g2, err2 := BarabasiAlbert(1500, 5, 7)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	e1, e2 := g1.EdgeList(), g2.EdgeList()
	if len(e1) != len(e2) {
		t.Fatalf("edge counts differ: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, e1[i], e2[i])
		}
	}
}

// Community is the membership ChungLu draws community arcs from, the
// default community count included: with CommunityProb 1 every arc but a
// rare self-loop fallback stays inside its source's community.
func TestCommunityIsChungLusMembership(t *testing.T) {
	cfg := Config{NumVertices: 2000, AvgDegree: 6, Skew: 0.5, CommunityProb: 1, Seed: 3}
	g, err := ChungLu(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	inside := 0
	for v := 0; v < g.NumVertices(); v++ {
		c := Community(cfg, v)
		seen[c] = true
		for _, u := range g.Neighbors(graph.VertexID(v)) {
			if Community(cfg, int(u)) == c {
				inside++
			}
		}
	}
	if len(seen) != cfg.NumVertices/250+1 {
		t.Fatalf("%d communities, want the default %d", len(seen), cfg.NumVertices/250+1)
	}
	if share := float64(inside) / float64(g.NumEdges()); share < 0.999 {
		t.Fatalf("%.4f of arcs inside their community, want all but the fallbacks", share)
	}
}

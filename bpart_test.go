package bpart

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"bpart/internal/experiments"
	"bpart/internal/gen"
	"bpart/internal/vcut"
)

func smallTwitter(t testing.TB) *Graph {
	t.Helper()
	g, err := Preset(TwitterSim, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestFacadeGraphBuilding(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	if g.NumVertices() != 3 || g.NumEdges() != 2 {
		t.Fatalf("built %v", g)
	}
	g2 := FromAdjacency([][]VertexID{{1}, {2}, {}})
	if g2.NumEdges() != 2 {
		t.Fatalf("adjacency graph %v", g2)
	}
	s := Stats(g2)
	if s.NumVertices != 3 {
		t.Fatalf("stats %+v", s)
	}
}

func TestFacadeGraphFileRoundTrip(t *testing.T) {
	g := FromAdjacency([][]VertexID{{1, 2}, {0}, {}})
	path := filepath.Join(t.TempDir(), "g.bg")
	if err := WriteGraphFile(path, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip lost edges: %v vs %v", back, g)
	}
}

func TestFacadePresets(t *testing.T) {
	for _, d := range Datasets() {
		g, err := Preset(d, 0.02)
		if err != nil {
			t.Fatalf("%s: %v", d, err)
		}
		if g.NumVertices() == 0 {
			t.Fatalf("%s empty", d)
		}
	}
}

func TestFacadeSchemesComplete(t *testing.T) {
	want := []string{"BPart", "Chunk-E", "Chunk-V", "Fennel", "GD", "Hash", "LDG", "Multilevel", "Spinner"}
	got := Schemes()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Schemes() = %v, want %v", got, want)
	}
}

func TestFacadePartitionAndEvaluate(t *testing.T) {
	g := smallTwitter(t)
	for _, scheme := range Schemes() {
		a, err := Partition(g, scheme, 4)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		r, err := Evaluate(g, a)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		if r.K != 4 {
			t.Fatalf("%s: report K = %d", scheme, r.K)
		}
	}
	if _, err := Partition(g, "nope", 4); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestFacadeBPartIsBalanced(t *testing.T) {
	g := smallTwitter(t)
	bp, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, err := bp.Partition(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Evaluate(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if r.VertexBias > 0.15 || r.EdgeBias > 0.15 {
		t.Fatalf("BPart not 2D balanced: %+v", r)
	}
}

func TestFacadeEngines(t *testing.T) {
	g := smallTwitter(t)
	a, err := Partition(g, "BPart", 4)
	if err != nil {
		t.Fatal(err)
	}
	ie, err := NewIterationEngine(g, a, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	pr, err := ie.PageRank(5, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Ranks) != g.NumVertices() {
		t.Fatalf("PageRank ranks length %d", len(pr.Ranks))
	}
	cc, err := ie.ConnectedComponents(0)
	if err != nil {
		t.Fatal(err)
	}
	if cc.Components < 1 {
		t.Fatalf("components = %d", cc.Components)
	}
	sssp, err := ie.SSSP(0)
	if err != nil {
		t.Fatal(err)
	}
	if sssp.Reached == 0 {
		t.Fatal("SSSP reached nothing")
	}
	core, err := ie.KCore(2)
	if err != nil {
		t.Fatal(err)
	}
	if core.CoreSize == 0 {
		t.Fatal("2-core empty on a dense graph")
	}
	bfs, err := ie.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	if bfs.Reached == 0 {
		t.Fatal("BFS reached nothing")
	}
	we, err := NewWalkEngine(g, a, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	res, err := we.Run(WalkConfig{Kind: DeepWalk, WalkersPerVertex: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSteps == 0 {
		t.Fatal("walk executed no steps")
	}
}

func TestFacadeEngineRejectsInvalidAssignment(t *testing.T) {
	g := smallTwitter(t)
	bad := &Assignment{Parts: []int{0}, K: 2}
	if _, err := NewIterationEngine(g, bad, DefaultCostModel()); err == nil {
		t.Fatal("invalid assignment accepted by iteration engine")
	}
	if _, err := NewWalkEngine(g, bad, DefaultCostModel()); err == nil {
		t.Fatal("invalid assignment accepted by walk engine")
	}
	if _, err := Evaluate(g, bad); err == nil {
		t.Fatal("invalid assignment accepted by Evaluate")
	}
}

// TestExperimentsSmoke runs every experiment at a tiny scale: the harness
// must complete and produce rows even on minuscule graphs.
func TestExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test skipped in -short mode")
	}
	opt := experiments.Options{Scale: 0.02}
	for _, ex := range experiments.All() {
		ex := ex
		t.Run(strings.ReplaceAll(ex.ID, " ", "_"), func(t *testing.T) {
			tbl, err := ex.Run(opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("no rows")
			}
			if tbl.String() == "" {
				t.Fatal("empty rendering")
			}
		})
	}
}

// TestFullPipeline drives the complete user workflow end to end: generate
// → persist graph → reload → partition → persist assignment → reload →
// place on a cluster → run applications → train embeddings from walks.
func TestFullPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test skipped in -short mode")
	}
	dir := t.TempDir()
	g0, err := Generate(GenConfig{
		NumVertices: 3000, AvgDegree: 10, Skew: 0.75,
		Locality: 0.2, CommunityProb: 0.4, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	gpath := filepath.Join(dir, "g.bg.gz")
	if err := WriteGraphFile(gpath, g0); err != nil {
		t.Fatal(err)
	}
	g, err := ReadGraphFile(gpath)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != g0.NumEdges() {
		t.Fatalf("graph persistence lost edges: %d vs %d", g.NumEdges(), g0.NumEdges())
	}
	a0, err := Partition(g, "BPart", 4)
	if err != nil {
		t.Fatal(err)
	}
	apath := filepath.Join(dir, "g.parts")
	if err := WriteAssignmentFile(apath, a0); err != nil {
		t.Fatal(err)
	}
	a, err := ReadAssignmentFile(apath)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Evaluate(g, a)
	if err != nil {
		t.Fatal(err)
	}
	if r.VertexBias > 0.2 || r.EdgeBias > 0.2 {
		t.Fatalf("persisted partition unbalanced: %+v", r)
	}
	ie, err := NewIterationEngine(g, a, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ie.PageRank(3, 0.85); err != nil {
		t.Fatal(err)
	}
	we, err := NewWalkEngine(g, a, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	res, err := we.Run(WalkConfig{
		Kind: DeepWalk, WalkersPerVertex: 2, Steps: 8, Seed: 5, CollectPaths: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	emb, err := TrainEmbeddings(res.Paths, g.NumVertices(), EmbedConfig{Dim: 8, Epochs: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if emb.NumVertices() != g.NumVertices() {
		t.Fatalf("embeddings for %d vertices, want %d", emb.NumVertices(), g.NumVertices())
	}
	if len(emb.MostSimilar(0, 3)) != 3 {
		t.Fatal("similarity query failed")
	}
}

// TestMonteCarloPageRankAgreement cross-validates the two engines: visit
// frequencies of many random-walk-with-jump walkers approximate PageRank,
// so the top vertices found by the walk engine must largely coincide with
// the top vertices found by the iteration engine's power method.
func TestMonteCarloPageRankAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test skipped in -short mode")
	}
	g, err := Preset(TwitterSim, 0.03)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Partition(g, "BPart", 4)
	if err != nil {
		t.Fatal(err)
	}
	ie, err := NewIterationEngine(g, a, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	pr, err := ie.PageRank(20, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	we, err := NewWalkEngine(g, a, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	// RWJ with jump probability 0.15 is the Monte-Carlo analogue of
	// damping 0.85.
	mc, err := we.Run(WalkConfig{
		Kind: RWJ, WalkersPerVertex: 10, Steps: 30, JumpProb: 0.15, Seed: 9, TrackVisits: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	topOf := func(score func(v int) float64) map[int]bool {
		idx := make([]int, g.NumVertices())
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(p, q int) bool { return score(idx[p]) > score(idx[q]) })
		top := map[int]bool{}
		for _, v := range idx[:50] {
			top[v] = true
		}
		return top
	}
	topPR := topOf(func(v int) float64 { return pr.Ranks[v] })
	topMC := topOf(func(v int) float64 { return float64(mc.Visits[v]) })
	overlap := 0
	for v := range topPR {
		if topMC[v] {
			overlap++
		}
	}
	if overlap < 30 {
		t.Fatalf("top-50 overlap between power iteration and Monte-Carlo walks = %d, want ≥ 30", overlap)
	}
}

// TestPaperShapes asserts the qualitative results of the paper's headline
// tables at a small but non-trivial scale.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test skipped in -short mode")
	}
	g, err := Preset(TwitterSim, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	const k = 8
	reports := map[string]Report{}
	for _, scheme := range []string{"Chunk-V", "Chunk-E", "Fennel", "Hash", "BPart"} {
		a, err := Partition(g, scheme, k)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Evaluate(g, a)
		if err != nil {
			t.Fatal(err)
		}
		reports[scheme] = r
	}
	// Fig 10 shape: BPart balanced in both dimensions, others not.
	if r := reports["BPart"]; r.VertexBias > 0.15 || r.EdgeBias > 0.15 {
		t.Errorf("BPart biases (%v, %v), want both ≤ 0.15", r.VertexBias, r.EdgeBias)
	}
	if reports["Chunk-V"].EdgeBias < 0.5 {
		t.Errorf("Chunk-V edge bias %v, want skewed", reports["Chunk-V"].EdgeBias)
	}
	if reports["Chunk-E"].VertexBias < 0.5 {
		t.Errorf("Chunk-E vertex bias %v, want skewed", reports["Chunk-E"].VertexBias)
	}
	// Table 3 shape: BPart cuts far fewer edges than Hash; Hash ≈ 7/8.
	if reports["BPart"].CutRatio >= reports["Hash"].CutRatio-0.1 {
		t.Errorf("BPart cut %v not clearly below Hash %v", reports["BPart"].CutRatio, reports["Hash"].CutRatio)
	}
	// Fig 13 shape: BPart's waiting ratio far below Chunk-V's.
	waits := map[string]float64{}
	for _, scheme := range []string{"Chunk-V", "BPart"} {
		a, err := Partition(g, scheme, k)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewWalkEngine(g, a, DefaultCostModel())
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(WalkConfig{Kind: SimpleWalk, WalkersPerVertex: 5, Steps: 4, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		waits[scheme] = res.Stats.WaitRatio()
	}
	if waits["BPart"] >= waits["Chunk-V"]/2 {
		t.Errorf("BPart wait ratio %v not well below Chunk-V %v", waits["BPart"], waits["Chunk-V"])
	}
}

// The degenerate-input grid (ROADMAP item 1(c)): every registered scheme
// and the four vertex-cut schemes, over graphs with nothing to balance at
// part counts from one to more than the vertices, and over a ring and a
// ChungLu graph at part counts around their vertex count. Each cell must
// return an assignment that validates and evaluates; the one accepted
// error is GD refusing a part count that is not a power of two. On each
// graph transposing twice must give the graph back arc for arc, and the
// graph's own reverse must equal its transpose.
func TestDegenerateGraphGrid(t *testing.T) {
	chungLu, err := Generate(GenConfig{NumVertices: 40, AvgDegree: 4, Skew: 0.7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	aroundN := func(n int) []int { return slices.Compact([]int{n - 1, n, n + 1, n + n/10, 2 * n}) }
	small := []int{1, 2, 4, 16}
	graphs := []struct {
		name string
		g    *Graph
		ks   []int
	}{
		{"empty", FromEdges(0, nil), small},
		{"single vertex", FromEdges(1, nil), small},
		{"isolated vertices", FromEdges(10, nil), small},
		{"self-loops", FromEdges(4, []Edge{{Src: 0, Dst: 0}, {Src: 1, Dst: 1}, {Src: 2, Dst: 3}, {Src: 3, Dst: 3}}), small},
		{"duplicate arcs", FromEdges(3, []Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 1}, {Src: 2, Dst: 0}}), small},
		{"ring", gen.Ring(12), aroundN(12)},
		{"chung-lu", chungLu, aroundN(40)},
	}
	vertexCuts := map[string]func() VertexCutPartitioner{
		"RandomEdgeCut": NewRandomEdgeCut, "DBH": NewDBH, "GreedyCut": NewGreedyCut, "HDRF": NewHDRF,
	}
	for _, tg := range graphs {
		t.Run(tg.name+"/transpose", func(t *testing.T) {
			for _, c := range []struct {
				what      string
				got, want *Graph
			}{
				{"Transpose(Transpose(g))", tg.g.Transpose().Transpose(), tg.g},
				{"g.In()", tg.g.In(), tg.g.Transpose()},
			} {
				if c.got.NumVertices() != c.want.NumVertices() || !reflect.DeepEqual(c.got.EdgeList(), c.want.EdgeList()) {
					t.Fatalf("%s = %v, want %v", c.what, c.got.EdgeList(), c.want.EdgeList())
				}
			}
		})
		for _, k := range tg.ks {
			for _, scheme := range Schemes() {
				t.Run(fmt.Sprintf("%s/%s/k=%d", tg.name, scheme, k), func(t *testing.T) {
					a, err := Partition(tg.g, scheme, k)
					if scheme == "GD" && k&(k-1) != 0 {
						if err == nil || !strings.Contains(err.Error(), "power-of-two") {
							t.Fatalf("GD at k=%d: err = %v, want the power-of-two refusal", k, err)
						}
						return
					}
					if err != nil {
						t.Fatal(err)
					}
					if a.K != k || len(a.Parts) != tg.g.NumVertices() {
						t.Fatalf("assignment has K = %d and %d entries, want %d and %d", a.K, len(a.Parts), k, tg.g.NumVertices())
					}
					r, err := Evaluate(tg.g, a)
					if err != nil || r.K != k {
						t.Fatalf("Evaluate: K = %d, %v", r.K, err)
					}
					// Conservation: every vertex and every arc is counted in
					// exactly one part, and the cut is a fraction of the arcs.
					var vs, es int
					for i := range r.Vertices {
						vs += r.Vertices[i]
						es += r.Edges[i]
					}
					if vs != tg.g.NumVertices() || es != tg.g.NumEdges() || !(r.CutRatio >= 0 && r.CutRatio <= 1) {
						t.Fatalf("Evaluate: Σ vertices %d, Σ edges %d, cut ratio %v; want %d, %d and in [0,1]",
							vs, es, r.CutRatio, tg.g.NumVertices(), tg.g.NumEdges())
					}
				})
			}
			if k > vcut.MaxParts {
				continue // a vertex cut's replica mask has one bit per part
			}
			for name, mk := range vertexCuts {
				t.Run(fmt.Sprintf("%s/%s/k=%d", tg.name, name, k), func(t *testing.T) {
					a, err := mk().Partition(tg.g, k)
					if err != nil {
						t.Fatal(err)
					}
					if r, err := EvaluateVertexCut(tg.g, a); err != nil || (tg.g.NumEdges() > 0 && r.ReplicationFactor < 1) {
						t.Fatalf("EvaluateVertexCut: %+v, %v", r, err)
					}
				})
			}
		}
	}
}

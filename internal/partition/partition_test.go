package partition

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/metrics"
	"bpart/internal/telemetry"
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

func mustPartition(t testing.TB, p Partitioner, g *graph.Graph, k int) *Assignment {
	t.Helper()
	a, err := p.Partition(g, k)
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	if err := a.Validate(g); err != nil {
		t.Fatalf("%s: invalid assignment: %v", p.Name(), err)
	}
	return a
}

func TestArgValidation(t *testing.T) {
	g := gen.Ring(4)
	for _, p := range []Partitioner{ChunkV{}, ChunkE{}, Hash{}, Fennel{}} {
		if _, err := p.Partition(g, 0); err == nil {
			t.Errorf("%s accepted k=0", p.Name())
		}
		if _, err := p.Partition(nil, 2); err == nil {
			t.Errorf("%s accepted nil graph", p.Name())
		}
	}
}

func TestChunkVBalancesVertices(t *testing.T) {
	g := twitterish(t)
	a := mustPartition(t, ChunkV{}, g, 8)
	r := metrics.NewReport(g, a.Parts, 8, false)
	if r.VertexBias > 0.01 {
		t.Fatalf("Chunk-V vertex bias %v, want ≈0", r.VertexBias)
	}
	// On a scale-free, ID-correlated graph the edge dimension must be
	// badly skewed — this is the paper's Fig 6a.
	if r.EdgeBias < 1.0 {
		t.Fatalf("Chunk-V edge bias %v, want ≫ 0 on hub-ordered graph", r.EdgeBias)
	}
	// Contiguity: parts must be intervals of the ID space.
	for v := 1; v < g.NumVertices(); v++ {
		if a.Parts[v] < a.Parts[v-1] {
			t.Fatalf("Chunk-V parts not monotone at %d", v)
		}
	}
}

func TestChunkEBalancesEdges(t *testing.T) {
	g := twitterish(t)
	a := mustPartition(t, ChunkE{}, g, 8)
	r := metrics.NewReport(g, a.Parts, 8, false)
	// Edge balance is near-perfect up to one vertex's degree granularity.
	if r.EdgeBias > 0.15 {
		t.Fatalf("Chunk-E edge bias %v, want small", r.EdgeBias)
	}
	// Vertex dimension must be skewed (Fig 6b).
	if r.VertexBias < 1.0 {
		t.Fatalf("Chunk-E vertex bias %v, want ≫ 0", r.VertexBias)
	}
}

func TestChunkERegularGraph(t *testing.T) {
	// On a regular graph Chunk-E and Chunk-V coincide.
	g := gen.Ring(100)
	a := mustPartition(t, ChunkE{}, g, 4)
	vs, es := graph.PartSizes(g, a.Parts, 4)
	for i := 0; i < 4; i++ {
		if vs[i] != 25 || es[i] != 25 {
			t.Fatalf("ring chunking uneven: V=%v E=%v", vs, es)
		}
	}
}

func TestHashBalancedBothDimensions(t *testing.T) {
	g := twitterish(t)
	a := mustPartition(t, Hash{}, g, 8)
	r := metrics.NewReport(g, a.Parts, 8, false)
	if r.VertexBias > 0.05 {
		t.Fatalf("Hash vertex bias %v", r.VertexBias)
	}
	if r.EdgeBias > 0.25 {
		t.Fatalf("Hash edge bias %v", r.EdgeBias)
	}
	// ... but the cut must be ≈ (k−1)/k = 0.875 (Table 3).
	if math.Abs(r.CutRatio-0.875) > 0.02 {
		t.Fatalf("Hash cut ratio %v, want ≈0.875", r.CutRatio)
	}
}

func TestHashSeedChangesAssignment(t *testing.T) {
	g := gen.Ring(1000)
	a1 := mustPartition(t, Hash{Seed: 1}, g, 4)
	a2 := mustPartition(t, Hash{Seed: 2}, g, 4)
	same := 0
	for v := range a1.Parts {
		if a1.Parts[v] == a2.Parts[v] {
			same++
		}
	}
	if same > 400 { // expectation 250 for k=4
		t.Fatalf("different seeds agree on %d/1000 vertices", same)
	}
}

func TestFennelBalancesVerticesCutsFewerEdges(t *testing.T) {
	g := twitterish(t)
	fennel := mustPartition(t, Fennel{}, g, 8)
	hash := mustPartition(t, Hash{}, g, 8)
	rf := metrics.NewReport(g, fennel.Parts, 8, false)
	rh := metrics.NewReport(g, hash.Parts, 8, false)
	if rf.VertexBias > 0.11 {
		t.Fatalf("Fennel vertex bias %v exceeds slack", rf.VertexBias)
	}
	if rf.CutRatio >= rh.CutRatio {
		t.Fatalf("Fennel cut %v not below Hash cut %v", rf.CutRatio, rh.CutRatio)
	}
}

func TestFennelSlackIsHardCap(t *testing.T) {
	g := twitterish(t)
	a := mustPartition(t, Fennel{}, g, 4)
	vs, _ := graph.PartSizes(g, a.Parts, 4)
	cap := DefaultSlack * float64(g.NumVertices()) / 4
	for i, v := range vs {
		// +1: the cap is checked before assignment, so a part may
		// exceed it by at most one vertex.
		if float64(v) > cap+1 {
			t.Fatalf("part %d has %d vertices, cap %v", i, v, cap)
		}
	}
}

func TestStreamSubset(t *testing.T) {
	g := gen.Ring(10)
	subset := []graph.VertexID{0, 1, 2, 3}
	res, err := Stream(g, StreamOptions{K: 2, C: 0.5, Vertices: subset})
	if err != nil {
		t.Fatal(err)
	}
	for v := 4; v < 10; v++ {
		if res.Parts[v] != Unassigned {
			t.Fatalf("vertex %d outside subset got part %d", v, res.Parts[v])
		}
	}
	assigned := 0
	for _, v := range subset {
		if res.Parts[v] == Unassigned {
			t.Fatalf("subset vertex %d unassigned", v)
		}
		assigned++
	}
	if got := res.VertexCount[0] + res.VertexCount[1]; got != assigned {
		t.Fatalf("vertex counts %v sum to %d, want %d", res.VertexCount, got, assigned)
	}
}

func TestStreamEmptySubset(t *testing.T) {
	g := gen.Ring(5)
	res, err := Stream(g, StreamOptions{K: 3, C: 0.5, Vertices: []graph.VertexID{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Parts {
		if p != Unassigned {
			t.Fatal("empty stream assigned a vertex")
		}
	}
}

func TestStreamBadOptions(t *testing.T) {
	g := gen.Ring(5)
	tr := telemetry.NewMemory()
	for _, tc := range []struct {
		name  string
		start []int // the state's pieces before the pass, as streamFrom takes them
		opt   StreamOptions
		want  string // substring of the error
	}{
		{"K=0", nil, StreamOptions{K: 0}, "k = 0"},
		{"C above 1", nil, StreamOptions{K: 2, C: 1.5}, "C = 1.5"},
		{"negative C", nil, StreamOptions{K: 2, C: -0.5}, "C = -0.5"},
		{"In of another graph", nil, StreamOptions{K: 2, In: gen.Ring(6)}, "does not match"},
		{"vertex ID past |V|", nil, StreamOptions{K: 2, Vertices: []graph.VertexID{0, 5}}, "Vertices[1] = 5"},
		{"vertex streamed twice", nil, StreamOptions{K: 2, Vertices: []graph.VertexID{3, 1, 3}, Tracer: tr}, "Vertices[2] = 3"},
		{"Start part out of range", []int{0, 1, 2, -1, -1}, StreamOptions{K: 2}, "piece 2 is held"},
		{"streamed vertex assigned in Start", []int{0, -1, -1, -1, -1}, StreamOptions{K: 2, Vertices: []graph.VertexID{1, 0}},
			"Vertices[1] = 0 is already held"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := streamFrom(g, tc.start, tc.opt)
			if err == nil {
				t.Fatalf("accepted, placed %d", res.Stats.Placed)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name %q", err, tc.want)
			}
		})
	}
	// The duplicate is found mid-stream, after the span was opened: it must
	// still be closed, carrying the error.
	spans := tr.Find("partition.stream")
	if len(spans) != 1 || !spans[0].Span || spans[0].Attr("error") == nil {
		t.Fatalf("failed stream left spans %+v, want one closed span with an error attribute", spans)
	}
}

// A pass over a state that holds vertices is traced but not audited: the
// audit's recorder assumes empty parts, so the span comes and no audit.*
// event does.
func TestStartStreamEmitsSpanNoAudit(t *testing.T) {
	g := gen.Ring(6)
	tr := telemetry.NewMemory()
	start := []int{0, 1, Unassigned, Unassigned, Unassigned, Unassigned}
	opt := StreamOptions{K: 2, Vertices: []graph.VertexID{2, 3, 4, 5}, Tracer: tr}
	if _, err := streamFrom(g, start, opt); err != nil {
		t.Fatal(err)
	}
	recs := tr.Records()
	if len(recs) != 1 || recs[0].Name != "partition.stream" || recs[0].Attr("placed") != int64(4) {
		t.Fatalf("records %+v, want the one partition.stream span", recs)
	}
}

func TestStreamEdgelessGraph(t *testing.T) {
	g := graph.FromAdjacency([][]graph.VertexID{{}, {}, {}, {}})
	res, err := Stream(g, StreamOptions{K: 2, C: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if res.VertexCount[0]+res.VertexCount[1] != 4 {
		t.Fatalf("vertex counts %v", res.VertexCount)
	}
	// With no affinity signal the penalty must still spread vertices.
	if res.VertexCount[0] == 0 || res.VertexCount[1] == 0 {
		t.Fatalf("edgeless spread failed: %v", res.VertexCount)
	}
}

func TestStreamCWeightsShiftBalance(t *testing.T) {
	g := twitterish(t)
	// C=0: pure edge-balance indicator — edge bias should be small.
	e, err := Stream(g, StreamOptions{K: 8, C: 0})
	if err != nil {
		t.Fatal(err)
	}
	// C=1: pure vertex balance — vertex bias small.
	v, err := Stream(g, StreamOptions{K: 8, C: 1})
	if err != nil {
		t.Fatal(err)
	}
	if eb := metrics.Bias(e.EdgeCount); eb > 0.25 {
		t.Fatalf("C=0 edge bias %v, want small", eb)
	}
	if vb := metrics.Bias(v.VertexCount); vb > 0.11 {
		t.Fatalf("C=1 vertex bias %v, want small", vb)
	}
}

func TestStreamCountsMatchPartSizes(t *testing.T) {
	g := twitterish(t)
	res, err := Stream(g, StreamOptions{K: 6, C: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	vs, es := graph.PartSizes(g, res.Parts, 6)
	for i := 0; i < 6; i++ {
		if vs[i] != res.VertexCount[i] || es[i] != res.EdgeCount[i] {
			t.Fatalf("part %d: stream counts (%d,%d) vs recomputed (%d,%d)",
				i, res.VertexCount[i], res.EdgeCount[i], vs[i], es[i])
		}
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range []string{"Chunk-V", "Chunk-E", "Hash", "Fennel"} {
		p, err := Get(name)
		if err != nil {
			t.Fatalf("Get(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("Get(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	names := Names()
	if len(names) < 4 {
		t.Fatalf("Names() = %v", names)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register("Chunk-V", func() Partitioner { return ChunkV{} })
}

// Property: every scheme yields a complete valid assignment on arbitrary
// graphs, and every part index stays in range even for k > n.
func TestQuickAllSchemesValid(t *testing.T) {
	schemes := []Partitioner{ChunkV{}, ChunkE{}, Hash{}, Fennel{}}
	f := func(seed uint64, rawK uint8) bool {
		n := int(seed%150) + 2
		k := int(rawK)%12 + 1
		g, err := gen.ChungLu(gen.Config{NumVertices: n, AvgDegree: 4, Skew: 0.7, Seed: seed})
		if err != nil {
			return false
		}
		for _, p := range schemes {
			a, err := p.Partition(g, k)
			if err != nil {
				return false
			}
			if a.Validate(g) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: Chunk-V vertex counts never differ by more than 1.
func TestQuickChunkVPerfectBalance(t *testing.T) {
	f := func(seed uint64, rawK uint8) bool {
		n := int(seed%500) + 1
		k := int(rawK)%16 + 1
		g := gen.Ring(n)
		a, err := ChunkV{}.Partition(g, k)
		if err != nil {
			return false
		}
		vs, _ := graph.PartSizes(g, a.Parts, k)
		minV, maxV := n, 0
		for _, v := range vs {
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
		}
		return maxV-minV <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFennel20k(b *testing.B) {
	g := twitterish(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Fennel{}).Partition(g, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHash20k(b *testing.B) {
	g := twitterish(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (Hash{}).Partition(g, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStream20k is the bare streaming loop (no tracer, audit or
// metrics attached — the default everywhere).
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

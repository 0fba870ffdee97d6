package graph

import (
	"bpart/internal/xrand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func diamond() *Graph {
	// 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, 3 -> 0
	return FromEdges(4, []Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 0}})
}

func TestEmptyGraph(t *testing.T) {
	var g Graph
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("zero graph not empty: %v", g.String())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("zero graph invalid: %v", err)
	}
	if g.AvgDegree() != 0 {
		t.Fatalf("AvgDegree of empty graph = %v, want 0", g.AvgDegree())
	}
}

func TestBuilderBasic(t *testing.T) {
	g := diamond()
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 5 {
		t.Fatalf("NumEdges = %d, want 5", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	wantDeg := []int{2, 1, 1, 1}
	if got := g.Degrees(); !reflect.DeepEqual(got, wantDeg) {
		t.Fatalf("Degrees = %v, want %v", got, wantDeg)
	}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []VertexID{1, 2}) {
		t.Fatalf("Neighbors(0) = %v", got)
	}
}

func TestAdjacencySorted(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 2)
	b.AddEdge(0, 1)
	b.AddEdge(0, 2)
	g := b.Build()
	ns := g.Neighbors(0)
	if !sort.SliceIsSorted(ns, func(i, j int) bool { return ns[i] < ns[j] }) {
		t.Fatalf("adjacency not sorted: %v", ns)
	}
	if len(ns) != 3 {
		t.Fatalf("parallel arcs must be preserved, got %v", ns)
	}
}

func TestHasEdge(t *testing.T) {
	g := diamond()
	cases := []struct {
		s, d VertexID
		want bool
	}{
		{0, 1, true}, {0, 2, true}, {0, 3, false},
		{1, 3, true}, {3, 0, true}, {1, 0, false}, {2, 2, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.s, c.d); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.s, c.d, got, c.want)
		}
	}
}

func TestAddUndirected(t *testing.T) {
	b := NewBuilder(2)
	b.AddUndirected(0, 1)
	g := b.Build()
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Fatalf("undirected arc missing: %v", g.EdgeList())
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestBuilderGrow(t *testing.T) {
	b := NewBuilder(1)
	b.Grow(5)
	b.AddEdge(4, 0)
	g := b.Build()
	if g.NumVertices() != 5 {
		t.Fatalf("NumVertices = %d, want 5", g.NumVertices())
	}
	b.Grow(2) // shrinking is a no-op
	if b.NumVertices() != 5 {
		t.Fatalf("Grow shrank the builder to %d", b.NumVertices())
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddEdge out of range did not panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 2)
}

func TestNewBuilderNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBuilder(-1) did not panic")
		}
	}()
	NewBuilder(-1)
}

func TestTranspose(t *testing.T) {
	g := diamond()
	tr := g.Transpose()
	if tr.NumEdges() != g.NumEdges() {
		t.Fatalf("transpose edge count %d != %d", tr.NumEdges(), g.NumEdges())
	}
	g.Edges(func(e Edge) bool {
		if !tr.HasEdge(e.Dst, e.Src) {
			t.Errorf("transpose missing reversed arc of %v", e)
		}
		return true
	})
	// Double transpose must be the original edge multiset.
	back := tr.Transpose()
	a, b := g.EdgeList(), back.EdgeList()
	sortEdges(a)
	sortEdges(b)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("double transpose changed edges")
	}
}

func sortEdges(es []Edge) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].Src != es[j].Src {
			return es[i].Src < es[j].Src
		}
		return es[i].Dst < es[j].Dst
	})
}

func TestEdgesEarlyStop(t *testing.T) {
	g := diamond()
	count := 0
	g.Edges(func(e Edge) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop visited %d edges, want 2", count)
	}
}

func TestFromAdjacency(t *testing.T) {
	g := FromAdjacency([][]VertexID{{1, 2}, {2}, {}})
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("unexpected shape %v", g)
	}
	if !g.HasEdge(0, 2) || !g.HasEdge(1, 2) {
		t.Fatalf("edges missing")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := diamond()
	sub, back := InducedSubgraph(g, []VertexID{0, 1, 3})
	if sub.NumVertices() != 3 {
		t.Fatalf("NumVertices = %d", sub.NumVertices())
	}
	// Kept arcs: 0->1, 1->3, 3->0 (0->2 and 2->3 dropped).
	if sub.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3: %v", sub.NumEdges(), sub.EdgeList())
	}
	if !reflect.DeepEqual(back, []VertexID{0, 1, 3}) {
		t.Fatalf("back map = %v", back)
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) || !sub.HasEdge(2, 0) {
		t.Fatalf("renumbered arcs wrong: %v", sub.EdgeList())
	}
}

func TestCountCrossEdges(t *testing.T) {
	g := diamond()
	all := CountCrossEdges(g, []int{0, 1, 1, 0})
	// cross arcs: 0->1, 0->2, 2->3 ... check by hand:
	// 0(p0)->1(p1) cross, 0->2(p1) cross, 1(p1)->3(p0) cross, 2(p1)->3(p0) cross, 3(p0)->0(p0) internal
	if all != 4 {
		t.Fatalf("cross = %d, want 4", all)
	}
	if c := CountCrossEdges(g, []int{0, 0, 0, 0}); c != 0 {
		t.Fatalf("single part cross = %d, want 0", c)
	}
}

func TestPartSizes(t *testing.T) {
	g := diamond()
	vs, es := PartSizes(g, []int{0, 1, 1, 0}, 2)
	if !reflect.DeepEqual(vs, []int{2, 2}) {
		t.Fatalf("vertex sizes = %v", vs)
	}
	// part0 owns v0(deg2)+v3(deg1)=3, part1 owns v1+v2 = 2
	if !reflect.DeepEqual(es, []int{3, 2}) {
		t.Fatalf("edge sizes = %v", es)
	}
}

func TestPairConnectivity(t *testing.T) {
	g := diamond()
	m := PairConnectivity(g, []int{0, 1, 1, 0}, 2)
	if m[0][1] != 2 { // 0->1, 0->2
		t.Fatalf("m[0][1] = %d, want 2", m[0][1])
	}
	if m[1][0] != 2 { // 1->3, 2->3
		t.Fatalf("m[1][0] = %d, want 2", m[1][0])
	}
	if m[0][0] != 1 { // 3->0
		t.Fatalf("m[0][0] = %d, want 1", m[0][0])
	}
	total := m[0][0] + m[0][1] + m[1][0] + m[1][1]
	if total != g.NumEdges() {
		t.Fatalf("connectivity total %d != |E| %d", total, g.NumEdges())
	}
}

func TestStatsSmall(t *testing.T) {
	g := diamond()
	s := ComputeStats(g)
	if s.NumVertices != 4 || s.NumEdges != 5 {
		t.Fatalf("stats shape wrong: %+v", s)
	}
	if s.MaxDegree != 2 {
		t.Fatalf("MaxDegree = %d, want 2", s.MaxDegree)
	}
	if s.AvgDegree != 1.25 {
		t.Fatalf("AvgDegree = %v, want 1.25", s.AvgDegree)
	}
	if s.ZeroDegree != 0 {
		t.Fatalf("ZeroDegree = %d", s.ZeroDegree)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestStatsEmpty(t *testing.T) {
	s := ComputeStats(&Graph{})
	if s.NumVertices != 0 || s.GiniDegree != 0 {
		t.Fatalf("empty stats: %+v", s)
	}
}

func TestGini(t *testing.T) {
	if g := giniSorted([]int{5, 5, 5, 5}); g != 0 {
		t.Fatalf("uniform gini = %v, want 0", g)
	}
	// One vertex holds everything: gini = (n-1)/n = 0.75 for n=4.
	if g := giniSorted([]int{0, 0, 0, 100}); g != 0.75 {
		t.Fatalf("concentrated gini = %v, want 0.75", g)
	}
	if g := giniSorted(nil); g != 0 {
		t.Fatalf("nil gini = %v", g)
	}
	if g := giniSorted([]int{0, 0}); g != 0 {
		t.Fatalf("all-zero gini = %v", g)
	}
}

func TestPercentileIndex(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want int
	}{
		{10, 0.5, 4}, {10, 0.99, 9}, {10, 0.0, 0}, {1, 0.9, 0}, {100, 1.0, 99},
	}
	for _, c := range cases {
		if got := percentileIndex(c.n, c.p); got != c.want {
			t.Errorf("percentileIndex(%d,%v) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

// Property: for any random edge set, Build produces a validating graph whose
// edge multiset equals the input.
func TestQuickBuildRoundTrip(t *testing.T) {
	f := func(seed int64, rawN uint8, rawM uint16) bool {
		n := int(rawN)%64 + 1
		m := int(rawM) % 512
		rng := xrand.New(uint64(seed))
		in := make([]Edge, m)
		for i := range in {
			in[i] = Edge{VertexID(rng.Intn(n)), VertexID(rng.Intn(n))}
		}
		g := FromEdges(n, in)
		if err := g.Validate(); err != nil {
			t.Logf("invalid graph: %v", err)
			return false
		}
		if g.NumEdges() != m || g.NumVertices() != n {
			return false
		}
		out := g.EdgeList()
		sortEdges(in)
		sortEdges(out)
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: sum of out-degrees equals the edge count; per-part sizes always
// sum to the totals.
func TestQuickDegreeSums(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(uint64(seed))
		n := rng.Intn(100) + 2
		m := rng.Intn(500)
		b := NewBuilder(n)
		for i := 0; i < m; i++ {
			b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
		}
		g := b.Build()
		sum := 0
		for _, d := range g.Degrees() {
			sum += d
		}
		if sum != g.NumEdges() {
			return false
		}
		k := rng.Intn(8) + 1
		assign := make([]int, n)
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		vs, es := PartSizes(g, assign, k)
		var tv, te int
		for i := 0; i < k; i++ {
			tv += vs[i]
			te += es[i]
		}
		return tv == n && te == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: cross edges + internal edges = all edges, and the pair
// connectivity matrix is consistent with CountCrossEdges.
func TestQuickCutConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := xrand.New(uint64(seed))
		n := rng.Intn(80) + 2
		m := rng.Intn(400)
		b := NewBuilder(n)
		for i := 0; i < m; i++ {
			b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
		}
		g := b.Build()
		k := rng.Intn(6) + 2
		assign := make([]int, n)
		for i := range assign {
			assign[i] = rng.Intn(k)
		}
		cut := CountCrossEdges(g, assign)
		mat := PairConnectivity(g, assign, k)
		var off, diag int
		for a := 0; a < k; a++ {
			for c := 0; c < k; c++ {
				if a == c {
					diag += mat[a][c]
				} else {
					off += mat[a][c]
				}
			}
		}
		return off == cut && off+diag == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// randomMultigraph draws m arcs over n vertices with self-loops and parallel
// arcs forced in, and only the lower half of the ID range as sources so the
// upper half is isolated on the out side.
func randomMultigraph(rng *xrand.RNG, n, m int) *Graph {
	b := NewBuilder(n)
	if n == 0 {
		return b.Build()
	}
	for i := 0; i < m; i++ {
		src, dst := VertexID(rng.Intn((n+1)/2)), VertexID(rng.Intn(n))
		switch rng.Intn(4) {
		case 0:
			b.AddEdge(src, src)
		case 1:
			b.AddEdge(src, dst)
			b.AddEdge(src, dst)
		default:
			b.AddEdge(src, dst)
		}
	}
	return b.Build()
}

// transposeViaBuilder is the reference Transpose is checked against: every
// arc replayed reversed through a Builder, whose Build sorts the rows.
func transposeViaBuilder(g *Graph) *Graph {
	b := NewBuilder(g.NumVertices())
	g.Edges(func(e Edge) bool {
		b.AddEdge(e.Dst, e.Src)
		return true
	})
	return b.Build()
}

func sameCSR(a, b *Graph) bool {
	return slices.Equal(a.offsets, b.offsets) && slices.Equal(a.targets, b.targets)
}

// Property: the counting-sort Transpose equals the Builder-built reference
// array for array, and transposing twice gives back the original exactly.
func TestTransposeMatchesBuilderReference(t *testing.T) {
	rng := xrand.New(7)
	sizes := [][2]int{{0, 0}, {1, 0}, {1, 5}, {2, 9}, {40, 0}}
	for i := 0; i < 60; i++ {
		sizes = append(sizes, [2]int{rng.Intn(120) + 2, rng.Intn(900)})
	}
	for _, nm := range sizes {
		g := randomMultigraph(rng, nm[0], nm[1])
		tr := g.Transpose()
		if err := tr.Validate(); err != nil {
			t.Fatalf("n=%d m=%d: transpose invalid: %v", nm[0], nm[1], err)
		}
		if want := transposeViaBuilder(g); !sameCSR(tr, want) {
			t.Fatalf("n=%d m=%d: transpose differs from the Builder reference", nm[0], nm[1])
		}
		if back := tr.Transpose(); !sameCSR(back, g) {
			t.Fatalf("n=%d m=%d: double transpose differs from the original", nm[0], nm[1])
		}
	}
}

// TestTransposeAllocs pins Transpose to its two CSR arrays plus the Graph
// header: no cursor array, and on one band (a graph below the fan-out
// floor) nothing else. A return to replaying arcs through a Builder
// allocates an order of magnitude more and fails here.
func TestTransposeAllocs(t *testing.T) {
	const n, m = 10000, 100000
	g := randomMultigraph(xrand.New(3), n, m)
	var sink *Graph
	if allocs := testing.AllocsPerRun(5, func() { sink = g.Transpose() }); allocs > 3 {
		t.Errorf("Transpose made %v allocations, want at most 3", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sink = g.Transpose()
	runtime.ReadMemStats(&after)
	const slack = 64 << 10 // size-class rounding of two large arrays
	limit := uint64(4*g.NumEdges() + 8*(n+1) + slack)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("Transpose allocated %d bytes, want at most %d", got, limit)
	}
	_ = sink
}

// The fanned-out build allocates what the one-band build does plus its
// fixed cost: the band bounds, the task closure and the pool's cursor and
// wait group (goroutine stacks come from the runtime's stack pool).
func TestTransposeFanOutAllocs(t *testing.T) {
	const n, m, bands = 10000, 100000, 7
	g := randomMultigraph(xrand.New(3), n, m)
	sink := g.transpose(bands) // warm the runtime's free goroutines
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sink = g.transpose(bands)
	runtime.ReadMemStats(&after)
	const slack, fanOut = 64 << 10, 8*(bands+1) + 1<<10
	limit := uint64(4*g.NumEdges() + 8*(n+1) + slack + fanOut)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("transpose(%d) allocated %d bytes, want at most %d", bands, got, limit)
	}
	_ = sink
}

// The banded build gives the Builder reference's bytes at every band
// count, on the degenerate shapes where bands fall empty or one band owns
// every arc, and on a graph above the fan-out floor, which In also builds
// at the default width.
func TestTransposeBandGrid(t *testing.T) {
	const n = 50
	into := func(dst func(src int) VertexID) *Graph {
		var edges []Edge
		for src := 0; src < n; src++ {
			for range src % 4 {
				edges = append(edges, Edge{VertexID(src), dst(src)})
			}
		}
		return FromEdges(n, edges)
	}
	loops := NewBuilder(n)
	for v := 0; v < n; v++ {
		loops.AddEdge(VertexID(v), VertexID(v))
		loops.AddEdge(VertexID(v), VertexID((v*7)%n))
		loops.AddEdge(VertexID(v), VertexID((v*7)%n))
	}
	big := randomMultigraph(xrand.New(11), 5000, 2*minBandArcs+1000)
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"zero value", &Graph{}},
		{"empty", FromEdges(0, nil)},
		{"isolated", FromEdges(n, nil)},
		{"all into 0", into(func(int) VertexID { return 0 })},
		{"all into last", into(func(int) VertexID { return n - 1 })},
		{"self-loops and parallel arcs", loops.Build()},
		{"above the floor", big},
	}
	for _, c := range graphs {
		want := transposeViaBuilder(c.g)
		for _, bands := range []int{1, 2, 3, 7, runtime.NumCPU()} {
			if got := c.g.transpose(bands); !sameCSR(got, want) {
				t.Errorf("%s: %d bands differ from the Builder reference", c.name, bands)
			}
		}
	}
	if w := runtime.GOMAXPROCS(0); w > 1 && transposeBands(w, big.NumEdges()) < 2 {
		t.Errorf("%d arcs stay on one band at width %d", big.NumEdges(), w)
	}
	if !sameCSR(big.In(), transposeViaBuilder(big)) {
		t.Error("In above the fan-out floor differs from the Builder reference")
	}
}

// The band count follows the width and stays at one below the floor.
func TestTransposeBands(t *testing.T) {
	for _, c := range []struct{ w, m, want int }{
		{1, 0, 1}, {8, 0, 1}, {8, 2*minBandArcs - 1, 1}, {8, 2 * minBandArcs, 2},
		{1, 100 * minBandArcs, bandsPerWorker}, {2, 100 * minBandArcs, 2 * bandsPerWorker},
	} {
		if got := transposeBands(c.w, c.m); got != c.want {
			t.Errorf("transposeBands(%d, %d) = %d, want %d", c.w, c.m, got, c.want)
		}
	}
}

// In is the graph's one reverse: built on the first call, the same pointer
// on every later one, equal to Transpose arc for arc, and reversed back to
// the graph itself without a second build — on the zero value and the
// empty graph too.
func TestInIsTheGraphsOneReverse(t *testing.T) {
	for name, g := range map[string]*Graph{
		"zero value": {}, "empty": FromEdges(0, nil), "isolated": FromEdges(3, nil),
		"diamond": diamond(), "multigraph": randomMultigraph(xrand.New(5), 50, 400),
	} {
		in := g.In()
		if g.In() != in {
			t.Errorf("%s: a second In call returned another graph", name)
		}
		if in.In() != g {
			t.Errorf("%s: In().In() is not the graph", name)
		}
		if !sameCSR(in, g.Transpose()) {
			t.Errorf("%s: In differs from Transpose", name)
		}
	}
}

// Goroutines racing on the first In call all get the one reverse (run
// under -race to check the publication).
func TestInConcurrentFirstCall(t *testing.T) {
	g := randomMultigraph(xrand.New(9), 2000, 20000)
	const racers = 8
	got := make([]*Graph, racers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = g.In()
		}()
	}
	wg.Wait()
	for i, in := range got {
		if in != got[0] || in.In() != g {
			t.Fatalf("racer %d got reverse %p, racer 0 got %p", i, in, got[0])
		}
	}
}

func TestHasEdgeHubRow(t *testing.T) {
	// A hub with parallel arcs to every even vertex: hits and misses at
	// both ends and in the middle of the row.
	const n = 200
	b := NewBuilder(n)
	for v := n - 2; v >= 2; v -= 2 {
		b.AddEdge(0, VertexID(v))
		b.AddEdge(0, VertexID(v))
	}
	g := b.Build()
	for v := 0; v < n; v++ {
		if got, want := g.HasEdge(0, VertexID(v)), v >= 2 && v%2 == 0; got != want {
			t.Errorf("HasEdge(0,%d) = %v, want %v", v, got, want)
		}
	}
	if g.HasEdge(1, 2) {
		t.Error("HasEdge on an empty row")
	}
}

func TestFromCSR(t *testing.T) {
	// Row 0 arrives unsorted, row 2 sorted, rows 1 and 3 empty.
	g, err := FromCSR([]uint64{0, 3, 3, 5, 5}, []VertexID{3, 1, 1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := FromEdges(4, []Edge{{0, 3}, {0, 1}, {0, 1}, {2, 0}, {2, 2}})
	if !sameCSR(g, want) {
		t.Fatalf("FromCSR = %v, want %v", g.EdgeList(), want.EdgeList())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, offsets := range [][]uint64{nil, {}, {0}} {
		g, err := FromCSR(offsets, nil)
		if err != nil || g.NumVertices() != 0 || g.NumEdges() != 0 {
			t.Errorf("FromCSR(%v, nil) = %v, %v, want the empty graph", offsets, g, err)
		}
	}
}

func TestFromCSRRejectsMalformed(t *testing.T) {
	cases := []struct {
		name    string
		offsets []uint64
		targets []VertexID
		want    string
	}{
		{"non-monotone offsets", []uint64{0, 2, 1, 3}, []VertexID{0, 1, 2}, "not monotone"},
		{"out-of-range target", []uint64{0, 1, 2}, []VertexID{1, 2}, "out of range"},
		{"offsets[0] != 0", []uint64{1, 1, 2}, []VertexID{0, 1}, "offsets[0]"},
		{"offsets[n] != m", []uint64{0, 1, 3}, []VertexID{0, 1}, "offsets[n]"},
		{"offsets[n] below m", []uint64{0, 1, 1}, []VertexID{0, 1}, "offsets[n]"},
		{"targets without vertices", nil, []VertexID{0}, "no vertices"},
	}
	for _, c := range cases {
		g, err := FromCSR(c.offsets, c.targets)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: FromCSR = %v, %v, want an error mentioning %q", c.name, g, err, c.want)
		}
	}
}

func TestValidateRejectsUnsortedRow(t *testing.T) {
	g := &Graph{offsets: []uint64{0, 2, 2}, targets: []VertexID{1, 0}}
	if err := g.Validate(); err == nil || !strings.Contains(err.Error(), "not sorted") {
		t.Fatalf("Validate = %v, want a sorted-adjacency error", err)
	}
}

// benchEdges is the input of the CSR construction benchmarks: 100k uniform
// random arcs over 10k vertices.
func benchEdges() (int, []Edge) {
	rng := xrand.New(1)
	const n, m = 10000, 100000
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{VertexID(rng.Intn(n)), VertexID(rng.Intn(n))}
	}
	return n, edges
}

func BenchmarkBuild(b *testing.B) {
	n, edges := benchEdges()
	b.ReportAllocs()
	b.SetBytes(int64(8 * len(edges)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = FromEdges(n, edges)
	}
}

func BenchmarkTranspose(b *testing.B) {
	g := FromEdges(benchEdges())
	b.ReportAllocs()
	b.SetBytes(int64(4 * g.NumEdges()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Transpose()
	}
}

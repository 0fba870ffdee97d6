package servestats

import (
	"reflect"
	"sync"
	"testing"

	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/xrand"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

func ringGraph(n int) *graph.Graph {
	adj := make([][]graph.VertexID, n)
	for i := range adj {
		adj[i] = []graph.VertexID{graph.VertexID((i + 1) % n), graph.VertexID((i + n - 1) % n)}
	}
	return graph.FromAdjacency(adj)
}

func blockAssignment(n, k int) []int {
	parts := make([]int, n)
	for i := range parts {
		parts[i] = i * k / n
	}
	return parts
}

func TestBackendValidation(t *testing.T) {
	g := ringGraph(10)
	if _, err := NewBackend(g, blockAssignment(10, 2), 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewBackend(g, blockAssignment(8, 2), 2); err == nil {
		t.Error("short assignment accepted")
	}
	if _, err := NewBackend(g, []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 5}, 2); err == nil {
		t.Error("out-of-range part accepted")
	}
	b, err := NewBackend(g, blockAssignment(10, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	if v := b.View(); v.Version() != 1 || v.K() != 2 {
		t.Fatalf("initial view = v%d k%d", v.Version(), v.K())
	}
}

func TestViewDefensiveCopy(t *testing.T) {
	g := ringGraph(4)
	parts := []int{0, 0, 1, 1}
	b, err := NewBackend(g, parts, 2)
	if err != nil {
		t.Fatal(err)
	}
	parts[0] = 1 // caller mutates its slice after handing it over
	if got := b.View().Part(0); got != 0 {
		t.Fatalf("view aliased the caller's slice: part(0) = %d", got)
	}
	cp := b.View().Parts()
	cp[1] = 1
	if got := b.View().Part(1); got != 0 {
		t.Fatalf("Parts() aliased the view: part(1) = %d", got)
	}
}

func TestSwapVersions(t *testing.T) {
	g := ringGraph(6)
	b, err := NewBackend(g, blockAssignment(6, 2), 2)
	if err != nil {
		t.Fatal(err)
	}
	old := b.View()
	v2, err := b.Swap(blockAssignment(6, 3), 3)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Version() != 2 || v2.K() != 3 {
		t.Fatalf("swapped view = v%d k%d", v2.Version(), v2.K())
	}
	// The old view stays usable for requests that already hold it.
	if old.Version() != 1 || old.Part(5) != 1 {
		t.Fatalf("old view mutated by swap: v%d part(5)=%d", old.Version(), old.Part(5))
	}
	if _, err := b.Swap(blockAssignment(6, 2), 0); err == nil {
		t.Error("invalid swap accepted")
	}
	if got := b.View().Version(); got != 2 {
		t.Fatalf("failed swap changed the view to v%d", got)
	}
}

func TestKHopDeterministicAndBounded(t *testing.T) {
	g := ringGraph(16)
	b, err := NewBackend(g, blockAssignment(16, 4), 4)
	if err != nil {
		t.Fatal(err)
	}
	count, sample := b.KHop(0, 2, 10)
	// Ring: 1 hop reaches {1,15}, 2 hops adds {2,14}.
	if count != 4 {
		t.Fatalf("2-hop count = %d, want 4", count)
	}
	want := []graph.VertexID{1, 15, 2, 14}
	if !reflect.DeepEqual(sample, want) {
		t.Fatalf("sample = %v, want %v", sample, want)
	}
	count2, sample2 := b.KHop(0, 2, 10)
	if count2 != count || !reflect.DeepEqual(sample2, sample) {
		t.Fatal("KHop not deterministic")
	}
	_, limited := b.KHop(0, 2, 2)
	if len(limited) != 2 {
		t.Fatalf("limit ignored: %v", limited)
	}
	if c, s := b.KHop(99, 2, 10); c != 0 || s != nil {
		t.Fatalf("out-of-range khop = %d %v", c, s)
	}
}

func TestWalkDeterministicPerSeed(t *testing.T) {
	g := ringGraph(32)
	b, err := NewBackend(g, blockAssignment(32, 4), 4)
	if err != nil {
		t.Fatal(err)
	}
	end1, n1 := b.Walk(3, 50, 0.1, 7)
	end2, n2 := b.Walk(3, 50, 0.1, 7)
	if end1 != end2 || n1 != n2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", end1, n1, end2, n2)
	}
	if n1 != 50 {
		t.Fatalf("walk on a ring took %d steps, want 50", n1)
	}
	// Different seeds should disagree somewhere over a few tries.
	same := true
	for seed := uint64(0); seed < 8 && same; seed++ {
		e, _ := b.Walk(3, 50, 0.1, seed)
		same = e == end1
	}
	if same {
		t.Fatal("walk ignores its seed")
	}
	// Sink without restart stops early; with restart it keeps going.
	sink := graph.FromAdjacency([][]graph.VertexID{{1}, {}})
	sb, err := NewBackend(sink, []int{0, 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, n := sb.Walk(0, 10, 0, 1); n != 1 {
		t.Fatalf("sink walk visited %d, want 1", n)
	}
	if _, n := sb.Walk(0, 10, 0.5, 1); n != 10 {
		t.Fatalf("sink walk with restart visited %d, want 10", n)
	}
}

// oracleKHop is the k-hop reference: a textbook level-synchronous BFS with
// a fresh []bool visited array and one slice per level. It shares no code
// with Backend.KHop, so agreement between the two is evidence, not echo.
func oracleKHop(g *graph.Graph, src graph.VertexID, hops, limit int) (int, []graph.VertexID) {
	if int(src) >= g.NumVertices() {
		return 0, nil
	}
	seen := make([]bool, g.NumVertices())
	seen[src] = true
	level := []graph.VertexID{src}
	var order []graph.VertexID
	for d := 0; d < hops; d++ {
		var next []graph.VertexID
		for _, u := range level {
			for _, w := range g.Neighbors(u) {
				if !seen[w] {
					seen[w] = true
					next = append(next, w)
				}
			}
		}
		order = append(order, next...)
		level = next
	}
	if limit > len(order) {
		limit = len(order)
	}
	if limit <= 0 {
		return len(order), nil
	}
	return len(order), order[:limit]
}

func ljSim(tb testing.TB, scale float64) *graph.Graph {
	tb.Helper()
	g, err := gen.Preset(gen.LJSim, scale)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func oneBackend(tb testing.TB, g *graph.Graph) *Backend {
	tb.Helper()
	b, err := NewBackend(g, make([]int, g.NumVertices()), 1)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func checkKHop(t *testing.T, b *Backend, src graph.VertexID, hops, limit int) {
	t.Helper()
	count, sample := b.KHop(src, hops, limit)
	wantCount, wantSample := oracleKHop(b.Graph(), src, hops, limit)
	if count != wantCount || !reflect.DeepEqual(sample, wantSample) {
		t.Fatalf("KHop(%d, hops=%d, limit=%d) = %d %v, oracle says %d %v",
			src, hops, limit, count, sample, wantCount, wantSample)
	}
}

func TestKHopMatchesOracle(t *testing.T) {
	// 130 vertices: the visited bitset spans three words, the last partial.
	const n = 130
	adj := func(fn func(v int) []graph.VertexID) *graph.Graph {
		rows := make([][]graph.VertexID, n)
		for v := range rows {
			rows[v] = fn(v)
		}
		return graph.FromAdjacency(rows)
	}
	cases := []struct {
		name   string
		g      *graph.Graph
		stride int // query every stride-th vertex
	}{
		{"path", adj(func(v int) []graph.VertexID {
			if v == n-1 {
				return nil
			}
			return []graph.VertexID{graph.VertexID(v + 1)}
		}), 1},
		{"star in", adj(func(v int) []graph.VertexID {
			if v == 0 {
				return nil
			}
			return []graph.VertexID{0}
		}), 1},
		{"star out", adj(func(v int) []graph.VertexID {
			if v != 0 {
				return nil
			}
			leaves := make([]graph.VertexID, n-1)
			for i := range leaves {
				leaves[i] = graph.VertexID(i + 1)
			}
			return leaves
		}), 1},
		{"cycle", ringGraph(n), 1},
		{"self-loops", adj(func(v int) []graph.VertexID {
			return []graph.VertexID{graph.VertexID(v), graph.VertexID((v + 1) % n)}
		}), 1},
		{"duplicate arcs", adj(func(v int) []graph.VertexID {
			a, b := graph.VertexID((v+1)%n), graph.VertexID((v*7+3)%n)
			return []graph.VertexID{a, b, a, b, a}
		}), 1},
		{"isolated vertices", adj(func(v int) []graph.VertexID {
			if v%3 != 0 {
				return nil
			}
			return []graph.VertexID{graph.VertexID((v + 3) % n), graph.VertexID((v + 63) / 3 * 3 % n)}
		}), 1},
		{"a sink source", graph.FromAdjacency([][]graph.VertexID{{1}, {}}), 1},
		{"lj-sim 0.02", ljSim(t, 0.02), 97},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := oneBackend(t, tc.g)
			for v := 0; v < tc.g.NumVertices(); v += tc.stride {
				for hops := 1; hops <= 8; hops++ {
					for _, limit := range []int{0, 1, 7, 1024} {
						checkKHop(t, b, graph.VertexID(v), hops, limit)
					}
				}
			}
			// The degenerate arguments answer (0, nil) and leave no trace.
			for _, q := range [][3]int{{tc.g.NumVertices(), 2, 4}, {0, 0, 4}, {0, -1, 4}, {0, 2, -1}} {
				checkKHop(t, b, graph.VertexID(q[0]), q[1], q[2])
			}
		})
	}
}

// TestKHopScratchReuse alternates a query that touches most of the bitset
// with one that touches almost none of it through one backend, then asks
// about every vertex: a bit left set in a pooled scratch hides a vertex
// from a later query, which shows as a count short of the oracle's.
func TestKHopScratchReuse(t *testing.T) {
	g := ljSim(t, 0.02)
	b := oneBackend(t, g)
	hub, leaf := graph.VertexID(0), graph.VertexID(0)
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.OutDegree(graph.VertexID(v)); d > g.OutDegree(hub) {
			hub = graph.VertexID(v)
		} else if d < g.OutDegree(leaf) {
			leaf = graph.VertexID(v)
		}
	}
	hubCount, _ := oracleKHop(g, hub, 4, 0)
	leafCount, _ := oracleKHop(g, leaf, 1, 0)
	if hubCount < g.NumVertices()/2 || leafCount >= hubCount/100 {
		t.Fatalf("hub reaches %d and leaf %d of %d vertices: not a hub and a leaf", hubCount, leafCount, g.NumVertices())
	}
	for i := 0; i < 1000; i++ {
		if c, _ := b.KHop(hub, 4, 16); c != hubCount {
			t.Fatalf("round %d: hub count = %d, want %d", i, c, hubCount)
		}
		if c, _ := b.KHop(leaf, 1, 16); c != leafCount {
			t.Fatalf("round %d: leaf count = %d, want %d", i, c, leafCount)
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		checkKHop(t, b, graph.VertexID(v), 2, 8)
	}
}

func TestKHopSteadyStateAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	g := ljSim(t, 0.02)
	b := oneBackend(t, g)
	b.KHop(7, 2, 0) // warm-up: builds the scratch and grows its queue
	if allocs := testing.AllocsPerRun(100, func() { b.KHop(7, 2, 0) }); allocs != 0 {
		t.Fatalf("KHop allocates %v times per call with a warm scratch, want 0", allocs)
	}
}

// TestKHopConcurrentWithSwap runs seeded k-hops from 8 goroutines while a
// ninth keeps swapping the assignment: every result must equal the one
// computed sequentially beforehand, and the race detector must stay quiet.
func TestKHopConcurrentWithSwap(t *testing.T) {
	const workers, perWorker = 8, 2000
	g := ljSim(t, 0.02)
	n := g.NumVertices()
	b := oneBackend(t, g)
	type query struct {
		src         graph.VertexID
		hops, limit int
		count       int
		sample      []graph.VertexID
	}
	queries := make([][]query, workers)
	for w := range queries {
		rng := xrand.New(uint64(w) + 1)
		queries[w] = make([]query, perWorker)
		for i := range queries[w] {
			q := &queries[w][i]
			q.src, q.hops, q.limit = graph.VertexID(rng.Intn(n)), 1+rng.Intn(2), rng.Intn(9)
			q.count, q.sample = oracleKHop(g, q.src, q.hops, q.limit)
		}
	}
	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		assign := [2][]int{blockAssignment(n, 2), blockAssignment(n, 4)}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := b.Swap(assign[i%2], 2+2*(i%2)); err != nil {
				t.Errorf("swap %d: %v", i, err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(qs []query) {
			defer wg.Done()
			for _, q := range qs {
				count, sample := b.KHop(q.src, q.hops, q.limit)
				if count != q.count || !reflect.DeepEqual(sample, q.sample) {
					t.Errorf("KHop(%d, hops=%d, limit=%d) = %d %v under swap, want %d %v",
						q.src, q.hops, q.limit, count, sample, q.count, q.sample)
					return
				}
			}
		}(queries[w])
	}
	wg.Wait()
	close(stop)
	swapper.Wait()
	if v := b.View().Version(); v < 2 {
		t.Fatalf("view still at version %d: no swap ran during the queries", v)
	}
}

// BenchmarkKHop is the serving kernel alone: a Zipf-1.0 stream of 2-hop
// queries, the benchmark's k-hop shape, over a twitter-sim small enough
// for `make benchsmoke`.
func BenchmarkKHop(b *testing.B) {
	g, err := gen.Preset(gen.TwitterSim, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	back := oneBackend(b, g)
	reqs, err := Workload{Seed: 1, Vertices: g.NumVertices(), Requests: 1024, ZipfS: 1.0, KHopW: 1}.Generate()
	if err != nil {
		b.Fatal(err)
	}
	visited := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := reqs[i%len(reqs)]
		count, _ := back.KHop(r.Vertex, r.Hops, 0)
		visited += count
	}
	b.ReportMetric(float64(visited)/float64(b.N), "visited/op")
}

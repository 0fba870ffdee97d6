package partition

import (
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/xrand"
)

// samePass fails unless two passes placed the same pieces and counted the
// same sizes and stats.
func samePass(t *testing.T, name string, got, want *StreamResult) {
	t.Helper()
	if !slices.Equal(got.Parts, want.Parts) || got.Stats != want.Stats ||
		!slices.Equal(got.VertexCount, want.VertexCount) || !slices.Equal(got.EdgeCount, want.EdgeCount) {
		t.Fatalf("%s: pass over the reused state differs from a fresh one-shot stream: stats %+v, fresh %+v",
			name, got.Stats, want.Stats)
	}
}

// A pass that fails mid-stream takes back every vertex it placed, so the
// next pass over the same state sees what a fresh one does.
func TestFailedPassLeavesStateUnchanged(t *testing.T) {
	g, err := gen.ChungLu(gen.Config{NumVertices: 500, AvgDegree: 8, Skew: 0.7, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	start := fillUnassigned(g.NumVertices())
	for v := 0; v < 100; v++ {
		start[v] = v % 4
	}
	good := StreamOptions{K: 4, C: 0.5, In: g.In(), Vertices: OrderByID(g.NumVertices())[100:]}
	want, err := streamFrom(g, start, good)
	if err != nil {
		t.Fatal(err)
	}

	st := NewStreamState(g)
	for v, p := range start {
		st.Assign(graph.VertexID(v), p)
	}
	a, b := good.Vertices[0], good.Vertices[1]
	bad := good
	bad.Vertices = []graph.VertexID{a, b, a}
	if _, err := st.Stream(bad); err == nil || !strings.Contains(err.Error(), "streamed twice") {
		t.Fatalf("pass over {a, b, a}: err %v, want a vertex streamed twice", err)
	}
	got, err := st.Stream(good)
	if err != nil {
		t.Fatal(err)
	}
	samePass(t, "after a failed pass", got, want)
}

// A pass costs what it streams: the same 1,000 vertices through a reused
// state allocate the same bytes on a 10k-vertex and a 100k-vertex graph,
// where a |V|-long array per pass would cost 80 KB against 800 KB.
func TestPassCostsWhatItStreams(t *testing.T) {
	const passes = 20
	perPass := func(n int) float64 {
		g, err := gen.ChungLu(gen.Config{NumVertices: n, AvgDegree: 4, Skew: 0.7, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		st := NewStreamState(g)
		opt := StreamOptions{K: 16, C: 0.5, In: g.In(), Vertices: OrderByID(1000), CapV: 70, CapE: 300}
		pass := func() {
			if _, err := st.Stream(opt); err != nil {
				t.Fatal(err)
			}
			st.Reset(opt.Vertices)
		}
		pass() // sizes the K-sized scratch
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < passes; i++ {
			pass()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / passes
	}
	small, large := perPass(10_000), perPass(100_000)
	t.Logf("bytes per pass: %.0f on 10k vertices, %.0f on 100k", small, large)
	if math.Abs(large-small) > 32 {
		t.Fatalf("a 1,000-vertex pass allocates %.0f B on 10k vertices and %.0f B on 100k: it pays for |V|", small, large)
	}
}

// A pass with a nil Vertices streams the ID range without a list of it:
// through a reused state it allocates the same bytes on a 10k-vertex and
// a 100k-vertex graph, where a |V|-long ID list would cost 40 KB against
// 400 KB.
func TestIDRangePassBuildsNoList(t *testing.T) {
	const passes = 4
	perPass := func(n int) float64 {
		g, err := gen.ChungLu(gen.Config{NumVertices: n, AvgDegree: 4, Skew: 0.7, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		st := NewStreamState(g)
		all := OrderByID(n)
		opt := StreamOptions{K: 8, C: 1, In: g.In()}
		pass := func() {
			res, err := st.Stream(opt)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.Placed != int64(n) {
				t.Fatalf("placed %d of %d vertices", res.Stats.Placed, n)
			}
			st.Reset(all)
		}
		pass() // sizes the K-sized scratch
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < passes; i++ {
			pass()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / passes
	}
	small, large := perPass(10_000), perPass(100_000)
	t.Logf("bytes per pass: %.0f on 10k vertices, %.0f on 100k", small, large)
	if math.Abs(large-small) > 32 {
		t.Fatalf("an ID-range pass allocates %.0f B on 10k vertices and %.0f B on 100k: it pays for |V|", small, large)
	}
}

// streamCase is one FuzzStream input, decoded as FuzzStream's body says.
type streamCase struct {
	name          string
	kind          uint8  // generator: ChungLu, RMAT, Barabási–Albert, Erdős–Rényi, ring, edgeless
	seed          uint64 // the graph's seed and the draws' (start, subset, shuffle)
	size, k       uint16 // |V| = 1 + size%300 (RMAT rounds down to a power of two), K = 1 + k%400
	c             uint8  // C = (c%101)/100
	caps, slack   uint8  // see the caps switch and slackOf
	in            bool   // undirected affinity through the transpose
	start         uint8  // each vertex is held before the pass with probability start/256
	order         uint8  // see the order switch
	recoveryAlpha bool   // the fault restream's α instead of the default
}

// slackOf is Slack by index: the default, under 1 (the fallback fires),
// none, and a loose 1.5.
var slackOf = [...]float64{0, 0.9, math.Inf(1), 1.5}

// streamSeeds is FuzzStream's seed corpus: TestStreamMatchesReferenceScorer's
// grid on graphs of at most 300 vertices, then its named cells.
var streamSeeds = func() []streamCase {
	tests := []streamCase{
		{name: "restricted k=16", seed: 11, size: 299, k: 15, c: 50, caps: 2, in: true, order: 1},
		{name: "restricted k=256", seed: 11, size: 299, k: 255, c: 50, caps: 2, in: true, order: 1},
		{name: "slack=0.9", seed: 11, size: 299, k: 15, c: 50, slack: 1, in: true},
		{name: "slack=0.9 caps", seed: 11, size: 299, k: 15, c: 50, caps: 3, slack: 1, in: true},
		{name: "restream", seed: 11, size: 299, k: 6, c: 50, slack: 2, in: true, start: 224, order: 2, recoveryAlpha: true},
		{name: "closed by slack", seed: 11, size: 299, k: 15, c: 50, in: true, start: 192},
		{name: "closed by CapV", seed: 11, size: 299, k: 15, c: 50, caps: 3, slack: 2, in: true, start: 192},
		{name: "unassigned start", seed: 11, size: 299, k: 15, c: 50, in: true},
		{name: "n=200 k=200", seed: 5, size: 199, k: 199, c: 50, caps: 3, in: true},
		{name: "n=200 k=333", seed: 5, size: 199, k: 332, c: 50, caps: 3, in: true},
		{name: "rmat", kind: 1, seed: 2, size: 255, k: 7, c: 50, caps: 1, in: true, start: 64, order: 3},
		{name: "barabasi-albert", kind: 2, seed: 4, size: 150, k: 31, c: 30, caps: 2, order: 3},
		{name: "erdos-renyi", kind: 3, seed: 6, size: 120, k: 3, c: 100, slack: 3, in: true, start: 32, order: 2},
		{name: "ring", kind: 4, size: 40, k: 5, c: 50, in: true, order: 3},
		{name: "edgeless", kind: 5, size: 20, k: 3, c: 50, start: 100},
	}
	for _, k := range []uint16{1, 15, 255} {
		for _, c := range []uint8{0, 50, 100} {
			for _, v := range []struct{ caps, in bool }{{false, false}, {false, true}, {true, false}, {true, true}} {
				tc := streamCase{name: "grid", seed: 11, size: 299, k: k, c: c, in: v.in}
				if v.caps {
					tc.caps = 1
				}
				tests = append(tests, tc)
			}
		}
	}
	return tests
}()

// fuzzGraph builds the input's graph, or nil when the generator refuses
// the size.
func fuzzGraph(kind uint8, seed uint64, n int) *graph.Graph {
	var g *graph.Graph
	var err error
	switch kind % 6 {
	case 0:
		g, err = gen.ChungLu(gen.Config{NumVertices: n, AvgDegree: 6, Skew: 0.78, Locality: 0.45, Window: 32, Seed: seed})
	case 1:
		scale := 0
		for 2<<scale <= n {
			scale++
		}
		g, err = gen.RMAT(gen.RMATConfig{Scale: scale, EdgeFactor: 4, A: 0.57, B: 0.19, C: 0.19, Seed: seed})
	case 2:
		g, err = gen.BarabasiAlbert(n, 3, seed)
	case 3:
		g, err = gen.ErdosRenyi(n, 4, seed)
	case 4:
		g = gen.Ring(n)
	default:
		g = graph.FromAdjacency(make([][]graph.VertexID, n))
	}
	if err != nil {
		return nil
	}
	return g
}

// FuzzStream holds a pass to the reference scorer over small generated
// graphs and random options, and every pass over one reused state to a
// fresh one-shot stream. The state first holds a random start; it then
// takes a pass, a failing pass (its vertices plus its first one again), a
// pass at another K in reverse order, and the first pass again, each reset
// by the vertices it streamed.
func FuzzStream(f *testing.F) {
	for _, tc := range streamSeeds {
		f.Add(tc.kind, tc.seed, tc.size, tc.k, tc.c, tc.caps, tc.slack, tc.in, tc.start, tc.order, tc.recoveryAlpha)
	}
	f.Fuzz(func(t *testing.T, kind uint8, seed uint64, size, k uint16, c, caps, slack uint8, in bool, start, order uint8, recoveryAlpha bool) {
		g := fuzzGraph(kind, seed, 1+int(size)%300)
		if g == nil {
			t.Skip("generator refuses the size")
		}
		n, m := g.NumVertices(), g.NumEdges()
		rng := xrand.New(seed)
		opt := StreamOptions{K: 1 + int(k)%400, C: float64(c%101) / 100, Slack: slackOf[slack%4]}
		other := 1 + (opt.K*5+7)%400 // the second pass's K
		if in {
			opt.In = g.Transpose()
		}
		if recoveryAlpha {
			opt.Alpha = float64(m) * math.Sqrt(float64(opt.K+1)) / math.Pow(float64(n), 1.5)
		}

		held := fillUnassigned(n)
		free := make([]graph.VertexID, 0, n) // the vertices start leaves unplaced, in ID order; never nil
		for v := range held {
			if rng.Intn(256) < int(start) {
				held[v] = rng.Intn(min(opt.K, other))
			} else {
				free = append(free, graph.VertexID(v))
			}
		}
		stream := free // every free vertex in ID order
		switch order % 4 {
		case 1: // BPart's residual shape: a subset in ID order
			stream = slices.DeleteFunc(slices.Clone(free), func(v graph.VertexID) bool { return v%3 == 1 })
		case 2: // the fault restream's order: highest out-degree first
			stream = slices.DeleteFunc(OrderByDegree(g, false), func(v graph.VertexID) bool { return held[v] != Unassigned })
		case 3: // a random subset in random order
			stream = slices.DeleteFunc(slices.Clone(free), func(graph.VertexID) bool { return rng.Bool(0.5) })
			rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
		}
		opt.Vertices = stream
		if order%4 == 0 && len(free) == n {
			opt.Vertices = nil // streams every vertex in ID order
		}
		ns, ms := len(stream), 0
		for _, v := range stream {
			ms += g.OutDegree(v)
		}
		switch caps % 4 {
		case 1: // the reference grid's
			opt.CapV, opt.CapE = n/opt.K+1, m/opt.K+m/(4*opt.K)
		case 2: // BPart's layer caps at the slack
			opt.CapV = int(DefaultSlack*float64(ns)/float64(opt.K)) + 1
			opt.CapE = int(DefaultSlack*float64(ms)/float64(opt.K)) + 1
		case 3: // tight: with the slack under 1, every part fills
			opt.CapV, opt.CapE = n/opt.K, m/opt.K
		}

		matchReference(t, "pass", g, held, opt)

		st := NewStreamState(g)
		for v, p := range held {
			st.Assign(graph.VertexID(v), p)
		}
		check := func(name string, o StreamOptions) {
			want, err := streamFrom(g, held, o)
			if err != nil {
				t.Fatalf("%s: fresh: %v", name, err)
			}
			got, err := st.Stream(o)
			if err != nil {
				t.Fatalf("%s: reused state: %v", name, err)
			}
			samePass(t, name, got, want)
			st.Reset(stream)
		}
		check("first pass", opt)
		if ns > 0 {
			bad := opt
			bad.Vertices = append(slices.Clone(stream), stream[0])
			if _, err := st.Stream(bad); err == nil {
				t.Fatalf("a pass streaming Vertices[0] twice succeeded")
			}
		}
		second := opt
		second.K, second.CapV, second.CapE = other, 0, 0
		second.Vertices = slices.Clone(stream)
		slices.Reverse(second.Vertices)
		check("second K", second)
		check("first pass again", opt)
	})
}

package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"bpart/internal/graph"
)

func TestBias(t *testing.T) {
	cases := []struct {
		in   []int
		want float64
	}{
		{nil, 0},
		{[]int{5, 5, 5}, 0},
		{[]int{0, 0, 0}, 0},
		{[]int{1, 3}, 0.5},         // mean 2, max 3
		{[]int{0, 4}, 1},           // mean 2, max 4
		{[]int{10, 0, 0, 0, 0}, 4}, // mean 2, max 10
	}
	for _, c := range cases {
		if got := Bias(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Bias(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestJain(t *testing.T) {
	if got := Jain([]int{7, 7, 7, 7}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("uniform Jain = %v, want 1", got)
	}
	if got := Jain([]int{100, 0, 0, 0}); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("concentrated Jain = %v, want 0.25 (=1/n)", got)
	}
	if Jain(nil) != 1 || Jain([]int{0, 0}) != 1 {
		t.Fatal("degenerate Jain not 1")
	}
}

// Property: Jain ∈ [1/n, 1]; Bias >= 0; both invariant under scaling.
func TestQuickMetricBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]int, len(raw))
		scaled := make([]int, len(raw))
		for i, v := range raw {
			xs[i] = int(v)
			scaled[i] = int(v) * 3
		}
		j := Jain(xs)
		if j < 1/float64(len(xs))-1e-9 || j > 1+1e-9 {
			return false
		}
		if Bias(xs) < 0 {
			return false
		}
		return math.Abs(Jain(scaled)-j) < 1e-9 &&
			math.Abs(Bias(scaled)-Bias(xs)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func testGraph() *graph.Graph {
	// 0->1, 1->2, 2->3, 3->0, 0->2
	return graph.FromAdjacency([][]graph.VertexID{{1, 2}, {2}, {3}, {0}})
}

func TestEdgeCutRatio(t *testing.T) {
	g := testGraph()
	if got := EdgeCutRatio(g, []int{0, 0, 0, 0}); got != 0 {
		t.Fatalf("single part cut = %v", got)
	}
	// parts {0,1} and {2,3}: cross arcs 1->2, 3->0, 0->2 => 3/5
	if got := EdgeCutRatio(g, []int{0, 0, 1, 1}); math.Abs(got-0.6) > 1e-12 {
		t.Fatalf("cut = %v, want 0.6", got)
	}
	empty := graph.FromAdjacency([][]graph.VertexID{{}, {}})
	if got := EdgeCutRatio(empty, []int{0, 1}); got != 0 {
		t.Fatalf("edgeless cut = %v", got)
	}
}

func TestNewReport(t *testing.T) {
	g := testGraph()
	r := NewReport(g, []int{0, 0, 1, 1}, 2, true)
	if r.K != 2 {
		t.Fatalf("K = %d", r.K)
	}
	if r.Vertices[0] != 2 || r.Vertices[1] != 2 {
		t.Fatalf("vertices = %v", r.Vertices)
	}
	// edges by source: part0 = deg(0)+deg(1) = 3, part1 = deg(2)+deg(3) = 2
	if r.Edges[0] != 3 || r.Edges[1] != 2 {
		t.Fatalf("edges = %v", r.Edges)
	}
	if r.VertexBias != 0 {
		t.Fatalf("VertexBias = %v", r.VertexBias)
	}
	if math.Abs(r.EdgeBias-0.2) > 1e-12 { // mean 2.5 max 3
		t.Fatalf("EdgeBias = %v", r.EdgeBias)
	}
	// pair connectivity: 0->2 and 1->2 go p0->p1 (2 arcs), 3->0 goes p1->p0 (1 arc); min=1
	if r.MinPairConn != 1 {
		t.Fatalf("MinPairConn = %d", r.MinPairConn)
	}
	if r.String() == "" {
		t.Fatal("empty report string")
	}
}

func TestReportWithoutPairConn(t *testing.T) {
	r := NewReport(testGraph(), []int{0, 0, 1, 1}, 2, false)
	if r.MinPairConn != 0 {
		t.Fatalf("MinPairConn computed without request: %d", r.MinPairConn)
	}
}

func TestRatioSeries(t *testing.T) {
	rs := RatioSeries([]int{1, 3})
	if rs[0] != 0.25 || rs[1] != 0.75 {
		t.Fatalf("RatioSeries = %v", rs)
	}
	zero := RatioSeries([]int{0, 0})
	if zero[0] != 0 || zero[1] != 0 {
		t.Fatalf("zero RatioSeries = %v", zero)
	}
}

func TestSpread(t *testing.T) {
	if got := Spread([]int{2, 8}); got != 4 {
		t.Fatalf("Spread = %v", got)
	}
	if got := Spread([]int{0, 8}); !math.IsInf(got, 1) {
		t.Fatalf("zero-min Spread = %v", got)
	}
	if got := Spread(nil); got != 1 {
		t.Fatalf("empty Spread = %v", got)
	}
}

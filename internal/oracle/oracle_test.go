package oracle

import (
	"reflect"
	"testing"

	"bpart/internal/graph"
)

// smallGraph is two weak components: 0→1→2→0 with a tail 2→3, and 5→4.
func smallGraph() *graph.Graph {
	b := graph.NewBuilder(6)
	for _, e := range [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 0}, {2, 3}, {5, 4}} {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

func TestComponentsMinIDLabels(t *testing.T) {
	labels, count := Components(smallGraph())
	if want := []uint32{0, 0, 0, 0, 4, 4}; !reflect.DeepEqual(labels, want) || count != 2 {
		t.Fatalf("labels %v count %d, want %v and 2", labels, count, want)
	}
}

func TestBFSHops(t *testing.T) {
	if got, want := BFS(smallGraph(), 1), []int32{2, 0, 1, 2, -1, -1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("BFS from 1 = %v, want %v", got, want)
	}
}

func TestSSSPTakesCheaperLongerPath(t *testing.T) {
	// 0→3 costs 10 directly but 3 through 1 and 2.
	b := graph.NewBuilder(5)
	for _, e := range [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}, {0, 3}} {
		b.AddEdge(e[0], e[1])
	}
	weight := func(u, v graph.VertexID) int64 {
		if u == 0 && v == 3 {
			return 10
		}
		return 1
	}
	if got, want := SSSP(b.Build(), 0, weight), []int64{0, 1, 2, 3, -1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("SSSP from 0 = %v, want %v", got, want)
	}
}

func TestPageRankDanglingRule(t *testing.T) {
	// 0→1 with 1 dangling: after one iteration from [.5, .5], the dangling
	// half spreads evenly and 1 also takes 0's whole share.
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1)
	got := PageRank(b.Build(), 0.85, 1)
	base := 0.15/2 + 0.85*0.5/2
	if want := []float64{base, base + 0.85*0.5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("PageRank = %v, want %v", got, want)
	}
}

func TestKCoreUndirectedClosure(t *testing.T) {
	// The triangle 0,1,2 keeps two arcs per vertex; the tail 3 and the
	// pair 4,5 keep one.
	for k, want := range map[int][]bool{
		1: {true, true, true, true, true, true},
		2: {true, true, true, false, false, false},
		3: {false, false, false, false, false, false},
	} {
		in, size := KCore(smallGraph(), k)
		count := 0
		for _, ok := range want {
			if ok {
				count++
			}
		}
		if !reflect.DeepEqual(in, want) || size != count {
			t.Fatalf("k=%d: core %v size %d, want %v and %d", k, in, size, want, count)
		}
	}
}

// MaxFreeze counts the most disjoint fitting sets, not the first ones a
// greedy pass meets.
func TestMaxFreezeDisjointSets(t *testing.T) {
	for _, tc := range []struct {
		name   string
		pv, pe []int
		tv, te float64
		eps    float64
		want   int
	}{
		{"three groups", []int{4, 6, 5, 5, 10}, []int{6, 4, 5, 5, 10}, 10, 10, 0.1, 3},
		{"edges rule out every set", []int{10, 10}, []int{0, 20}, 10, 10, 0.1, 0},
		{"a zero edge target", []int{10, 10}, []int{0, 20}, 10, 0, 0.1, 2},
		// {5,4,1} fits but leaves {5,6}; {5,5} and {4,6} fit together.
		{"the larger packing", []int{5, 4, 1, 5, 6}, []int{1, 1, 1, 1, 1}, 10, 0, 0, 2},
		{"the band is closed", []int{9, 11}, []int{1, 1}, 10, 1, 0.1, 2},
		{"no pieces", nil, nil, 10, 10, 0.1, 0},
	} {
		if got := MaxFreeze(tc.pv, tc.pe, tc.tv, tc.te, tc.eps); got != tc.want {
			t.Errorf("%s: MaxFreeze = %d, want %d", tc.name, got, tc.want)
		}
	}
}

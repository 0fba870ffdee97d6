package experiments

import (
	"reflect"
	"testing"

	"bpart/internal/cluster"
	"bpart/internal/engine"
	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/metrics"
	"bpart/internal/xrand"
)

// rankTol bounds the relative difference of a PageRank score computed over
// a relabeled graph: the same terms are summed in another order.
const rankTol = 1e-12

// Metamorphic relabeling: renaming the vertices of a graph and of its
// placement together must change no metric and no simulated cost. For
// lj-sim under three placements, the relabeled run must give the same
// metrics.Report, the same per-machine per-superstep work and simulated
// times for PageRank(10) and BFS, and the same ranks and distances under
// the permutation. CC is left out: its labels are vertex IDs.
func TestRelabelInvariance(t *testing.T) {
	const k = 8
	opt := Options{Scale: testScale}
	g, err := dataset(gen.LJSim, opt)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumVertices()
	perm := xrand.New(7).Perm(n)
	rg := gen.Relabel(g, perm)
	for _, scheme := range []string{"Chunk-V", "Hash", "BPart"} {
		t.Run(scheme, func(t *testing.T) {
			parts, err := assignment(gen.LJSim, opt, scheme, k)
			if err != nil {
				t.Fatal(err)
			}
			rparts := make([]int, n)
			for v, p := range parts {
				rparts[perm[v]] = p
			}
			if a, b := metrics.NewReport(g, parts, k, false), metrics.NewReport(rg, rparts, k, false); !reflect.DeepEqual(a, b) {
				t.Fatalf("report changed under relabeling:\n%v\n%v", a, b)
			}
			e, re := newIter(t, g, parts, k), newIter(t, rg, rparts, k)

			pr, err := e.PageRank(10, 0.85)
			if err != nil {
				t.Fatal(err)
			}
			rpr, err := re.PageRank(10, 0.85)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pr.Stats, rpr.Stats) {
				t.Fatal("PageRank work or simulated time changed under relabeling")
			}
			for v := range pr.Ranks {
				if a, b := pr.Ranks[v], rpr.Ranks[perm[v]]; !metrics.ApproxEq(a, b, rankTol) {
					t.Fatalf("rank of vertex %d: %v, relabeled %v", v, a, b)
				}
			}

			bfs, err := e.BFS(0)
			if err != nil {
				t.Fatal(err)
			}
			rbfs, err := re.BFS(graph.VertexID(perm[0]))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(bfs.Stats, rbfs.Stats) || bfs.Reached != rbfs.Reached {
				t.Fatal("BFS work, reach or simulated time changed under relabeling")
			}
			for v, d := range bfs.Dist {
				if rd := rbfs.Dist[perm[v]]; d != rd {
					t.Fatalf("distance of vertex %d: %d, relabeled %d", v, d, rd)
				}
			}
		})
	}
}

func newIter(t *testing.T, g *graph.Graph, parts []int, k int) *engine.Engine {
	t.Helper()
	e, err := engine.New(g, parts, k, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

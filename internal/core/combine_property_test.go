package core

import (
	"fmt"
	"testing"

	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/metrics"
)

// combineCase is one random-graph family the combine invariants are fuzzed
// across. The generator is a pure function of the seed, so every failure
// reported below replays from the seed in the subtest name alone.
type combineCase struct {
	family string
	build  func(seed uint64) (*graph.Graph, error)
}

func combineFamilies() []combineCase {
	return []combineCase{
		{"chung-lu", func(seed uint64) (*graph.Graph, error) {
			return gen.ChungLu(gen.Config{
				NumVertices: 2500, AvgDegree: 10, Skew: 0.75, Locality: 0.4, Seed: seed,
			})
		}},
		{"rmat", func(seed uint64) (*graph.Graph, error) {
			return gen.RMAT(gen.RMATConfig{
				Scale: 11, EdgeFactor: 8, A: 0.57, B: 0.19, C: 0.19, Seed: seed,
			})
		}},
	}
}

// Property: across random Chung-Lu and R-MAT graphs × seeds, the combining
// recursion conserves the vertex and edge totals EXACTLY at every layer
// (pairwise merging can move mass between groups, never create or drop
// it), the finalized group counts add up to k, and the final partition
// keeps both biases bounded — the paper's two-dimensional balance claim.
func TestCombineInvariantsProperty(t *testing.T) {
	const (
		k         = 8
		biasBound = 0.25
	)
	seeds := []uint64{1, 2, 3, 17, 42, 1002}
	for _, fam := range combineFamilies() {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", fam.family, seed), func(t *testing.T) {
				g, err := fam.build(seed)
				if err != nil {
					t.Fatalf("seed %d: generator: %v", seed, err)
				}
				b, err := New(Config{})
				if err != nil {
					t.Fatal(err)
				}
				a, tr, err := b.PartitionWithTrace(g, k)
				if err != nil {
					t.Fatalf("seed %d: partition: %v", seed, err)
				}
				if err := a.Validate(g); err != nil {
					t.Fatalf("seed %d: invalid assignment: %v", seed, err)
				}

				// Exact conservation through every combining layer: layer 0
				// splits the whole graph, and within a layer the combined
				// groups hold precisely the vertices and edges of the
				// pieces that entered it — pairwise merging moves mass
				// between groups, never creates or drops it.
				totalFinalized := 0
				for i, l := range tr.Layers {
					pv, pe := sumInts(l.PieceV), sumInts(l.PieceE)
					cv, ce, frozen := 0, 0, 0
					for _, lg := range l.Groups {
						cv, ce = cv+lg.V, ce+lg.E
						if lg.Final >= 0 {
							frozen++
						}
					}
					if i == 0 && (pv != g.NumVertices() || pe != g.NumEdges()) {
						t.Fatalf("seed %d: layer 0 pieces hold %d/%d vertices and %d/%d edges",
							seed, pv, g.NumVertices(), pe, g.NumEdges())
					}
					if cv != pv || ce != pe {
						t.Fatalf("seed %d: layer %d combining changed totals: pieces %d/%d, groups %d/%d",
							seed, l.Layer, pv, pe, cv, ce)
					}
					if l.Finalized != frozen || l.Finalized+l.RemainingNr != len(l.Groups) {
						t.Fatalf("seed %d: layer %d finalized %d (%d groups with a final part) + dissolved %d != %d groups",
							seed, l.Layer, l.Finalized, frozen, l.RemainingNr, len(l.Groups))
					}
					totalFinalized += l.Finalized
					// A later layer re-partitions only the dissolved mass,
					// so its piece totals can never exceed this layer's —
					// and match exactly when nothing froze.
					if i+1 < len(tr.Layers) {
						nv := sumInts(tr.Layers[i+1].PieceV)
						if nv > pv {
							t.Fatalf("seed %d: layer %d pieces hold %d vertices, more than the %d that remained",
								seed, l.Layer+1, nv, pv)
						}
						if l.Finalized == 0 && nv != pv {
							t.Fatalf("seed %d: layer %d froze nothing yet vertex mass changed %d -> %d",
								seed, l.Layer, pv, nv)
						}
					}
				}
				if totalFinalized != k {
					t.Fatalf("seed %d: %d groups finalized across layers, want %d", seed, totalFinalized, k)
				}

				// The final assignment conserves the graph exactly.
				vs, es := graph.PartSizes(g, a.Parts, k)
				if tv, te := sumInts(vs), sumInts(es); tv != g.NumVertices() || te != g.NumEdges() {
					t.Fatalf("seed %d: assignment holds %d/%d vertices and %d/%d edges",
						seed, tv, g.NumVertices(), te, g.NumEdges())
				}

				// And both biases stay bounded.
				r := metrics.NewReport(g, a.Parts, k, false)
				if r.VertexBias > biasBound {
					t.Errorf("seed %d: vertex bias %v exceeds %v", seed, r.VertexBias, biasBound)
				}
				if r.EdgeBias > biasBound {
					t.Errorf("seed %d: edge bias %v exceeds %v", seed, r.EdgeBias, biasBound)
				}
			})
		}
	}
}

func sumInts(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

package partition

import (
	"bpart/internal/graph"
	"bpart/internal/xrand"
)

// Spinner is a simplified implementation of Spinner (Martella, Logothetis,
// Loukas, Siganos; ICDE'17), the iterative label-propagation partitioner
// the paper cites in §5. Every vertex starts with a random label in
// [0, k); in each sweep a vertex adopts the label most frequent among its
// (undirected) neighbors, discounted by the target partition's load so
// labels stay balanced in *degree mass* (Spinner's balance unit — a proxy
// for edges per partition). Convergence typically takes a few dozen
// sweeps; the result is edge-balance-leaning with a low cut, but like the
// paper's other baselines it controls only one dimension.
type Spinner struct{}

const (
	// spinnerSweeps caps the LP sweeps.
	spinnerSweeps = 30
	// spinnerSlack ε bounds each label's degree mass at (1+ε)·2m/k.
	spinnerSlack = 0.05
	// spinnerSeed drives the random initialization.
	spinnerSeed = 0x59155E
)

// Name implements Partitioner.
func (Spinner) Name() string { return "Spinner" }

// Partition implements Partitioner.
func (Spinner) Partition(g *graph.Graph, k int) (*Assignment, error) {
	if err := checkArgs(g, k); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	in := g.In()
	deg := make([]int, n) // undirected degree = balance weight
	var totalDeg float64
	for v := 0; v < n; v++ {
		deg[v] = g.OutDegree(graph.VertexID(v)) + in.OutDegree(graph.VertexID(v))
		totalDeg += float64(deg[v])
	}
	capacity := (1 + spinnerSlack) * totalDeg / float64(k)
	if capacity < 1 {
		capacity = 1
	}

	rng := xrand.New(spinnerSeed)
	parts := make([]int, n)
	load := make([]float64, k)
	for v := 0; v < n; v++ {
		parts[v] = rng.Intn(k)
		load[parts[v]] += float64(deg[v])
	}

	counts := make([]int, k)
	for it := 0; it < spinnerSweeps; it++ {
		moved := 0
		for v := 0; v < n; v++ {
			for i := range counts {
				counts[i] = 0
			}
			tally := func(ns []graph.VertexID) {
				for _, u := range ns {
					counts[parts[u]]++
				}
			}
			tally(g.Neighbors(graph.VertexID(v)))
			tally(in.Neighbors(graph.VertexID(v)))
			cur := parts[v]
			w := float64(deg[v])
			best, bestScore := cur, score(counts[cur], load[cur], capacity)
			for l := 0; l < k; l++ {
				if l == cur {
					continue
				}
				if load[l]+w > capacity {
					continue
				}
				if sc := score(counts[l], load[l], capacity); sc > bestScore {
					best, bestScore = l, sc
				}
			}
			if best != cur {
				load[cur] -= w
				load[best] += w
				parts[v] = best
				moved++
			}
		}
		if moved == 0 {
			break
		}
	}
	return &Assignment{Parts: parts, K: k}, nil
}

// score is Spinner's affinity × remaining-capacity product.
func score(affinity int, load, capacity float64) float64 {
	return float64(affinity) * (1 - load/capacity)
}

func init() {
	Register("Spinner", func() Partitioner { return Spinner{} })
}

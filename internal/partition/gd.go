package partition

import (
	"fmt"
	"sort"

	"bpart/internal/graph"
	"bpart/internal/metrics"
	"bpart/internal/xrand"
)

// GD is a simplified implementation of the projected-gradient-descent
// partitioner of Avdiukhin, Pupyrev and Yaroslavtsev (VLDB'19), the other
// two-dimensionally balanced scheme the paper discusses in §5. It
// recursively bisects the graph: each bisection relaxes the side
// assignment to x ∈ [−1,1]^n, ascends the smooth co-clustering objective
// Σ_{(u,v)∈E} x_u·x_v (aligned neighbors ⇒ fewer cut edges), projects onto
// the two balance hyperplanes (Σx = 0 for vertices, Σ deg·x = 0 for
// edges), and finally rounds with a greedy two-dimensional packer.
//
// As the paper notes, GD handles only power-of-two part counts and is far
// slower than streaming schemes — both properties are visible in the
// Table 2 / ablation benches.
type GD struct{}

const (
	// gdIterations is the number of ascent steps per bisection.
	gdIterations = 40
	// gdStep is the gradient step size, normalized by the largest
	// gradient entry.
	gdStep = 0.05
	// gdEpsilon is the per-dimension rounding slack.
	gdEpsilon = 0.05
	// gdSeed drives the random initialization.
	gdSeed = 0x6D
)

// Name implements Partitioner.
func (GD) Name() string { return "GD" }

// Partition implements Partitioner. k must be a power of two.
func (GD) Partition(g *graph.Graph, k int) (*Assignment, error) {
	if err := checkArgs(g, k); err != nil {
		return nil, err
	}
	if k&(k-1) != 0 {
		return nil, fmt.Errorf("partition: GD supports only power-of-two part counts, got %d", k)
	}
	n := g.NumVertices()
	parts := make([]int, n)
	if k == 1 || n == 0 {
		return &Assignment{Parts: parts, K: k}, nil
	}
	in := g.In()
	rng := xrand.New(gdSeed)
	all := make([]graph.VertexID, n)
	for v := range all {
		all[v] = graph.VertexID(v)
	}
	// Recursive bisection: level ℓ splits each current block in two.
	blocks := [][]graph.VertexID{all}
	for len(blocks) < k {
		var next [][]graph.VertexID
		for _, blk := range blocks {
			a, b := bisect(g, in, blk, rng)
			next = append(next, a, b)
		}
		blocks = next
	}
	for i, blk := range blocks {
		for _, v := range blk {
			parts[v] = i
		}
	}
	return &Assignment{Parts: parts, K: k}, nil
}

// bisect splits one vertex block into two halves balanced in both
// dimensions with few cut edges.
func bisect(g, in *graph.Graph, blk []graph.VertexID, rng *xrand.RNG) (a, b []graph.VertexID) {
	nb := len(blk)
	if nb <= 1 {
		return blk, nil
	}
	inBlk := make(map[graph.VertexID]int, nb) // vertex -> index in blk
	for i, v := range blk {
		inBlk[v] = i
	}
	deg := make([]float64, nb)
	var totalDeg float64
	for i, v := range blk {
		deg[i] = float64(g.OutDegree(v))
		totalDeg += deg[i]
	}
	x := make([]float64, nb)
	for i := range x {
		x[i] = rng.Float64()*0.2 - 0.1
	}
	grad := make([]float64, nb)
	for it := 0; it < gdIterations; it++ {
		for i := range grad {
			grad[i] = 0
		}
		// ∂/∂x_v Σ_{(u,w)} x_u x_w = Σ_{u ∈ N(v)} x_u (both directions).
		for i, v := range blk {
			for _, u := range g.Neighbors(v) {
				if j, ok := inBlk[u]; ok {
					grad[i] += x[j]
				}
			}
			for _, u := range in.Neighbors(v) {
				if j, ok := inBlk[u]; ok {
					grad[i] += x[j]
				}
			}
		}
		// Normalized ascent step.
		var norm float64
		for _, gv := range grad {
			if gv > norm {
				norm = gv
			} else if -gv > norm {
				norm = -gv
			}
		}
		if metrics.IsZero(norm) {
			norm = 1
		}
		for i := range x {
			x[i] += gdStep * grad[i] / norm
		}
		projectBalance(x, deg, totalDeg)
		for i := range x {
			if x[i] > 1 {
				x[i] = 1
			} else if x[i] < -1 {
				x[i] = -1
			}
		}
	}
	// Rounding: split the x-sorted order in half (vertex balance by
	// construction, cut quality from the ordering), then repair the edge
	// dimension with vertex-for-vertex swaps across the boundary, trading
	// a high-degree vertex from the edge-heavy side for a low-degree one
	// from the other, so vertex balance is preserved.
	order := make([]int, nb)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(p, q int) bool {
		if !metrics.TieEq(x[order[p]], x[order[q]]) {
			return x[order[p]] > x[order[q]]
		}
		return order[p] < order[q]
	})
	mid := (nb + 1) / 2
	sideA := append([]int(nil), order[:mid]...)
	sideB := append([]int(nil), order[mid:]...)
	repairEdges(sideA, sideB, deg, totalDeg)
	a = make([]graph.VertexID, len(sideA))
	for i, idx := range sideA {
		a[i] = blk[idx]
	}
	b = make([]graph.VertexID, len(sideB))
	for i, idx := range sideB {
		b[i] = blk[idx]
	}
	return a, b
}

// repairEdges swaps vertices between the sides until the edge masses are
// within ε of each other (or no swap can make progress).
func repairEdges(sideA, sideB []int, deg []float64, totalDeg float64) {
	sideEdges := func(side []int) float64 {
		var e float64
		for _, i := range side {
			e += deg[i]
		}
		return e
	}
	ea := sideEdges(sideA)
	halfE := totalDeg / 2
	tol := gdEpsilon * maxF(halfE, 1)
	// heavy: the side currently over half; its vertices sorted by degree
	// descending; the light side ascending.
	for iter := 0; iter < len(sideA)+len(sideB); iter++ {
		delta := ea - halfE // >0: A edge-heavy
		if delta <= tol && delta >= -tol {
			return
		}
		heavy, light := sideA, sideB
		if delta < 0 {
			heavy, light = sideB, sideA
			delta = -delta
		}
		// Best single swap: the largest-degree heavy vertex paired with
		// the smallest-degree light vertex, applied only while it
		// improves the imbalance.
		hi, li := 0, 0
		for i := range heavy {
			if deg[heavy[i]] > deg[heavy[hi]] {
				hi = i
			}
		}
		for i := range light {
			if deg[light[i]] < deg[light[li]] {
				li = i
			}
		}
		gain := deg[heavy[hi]] - deg[light[li]]
		if gain <= 0 || gain > 2*delta {
			// Either no improving swap exists or the smallest available
			// swap overshoots past the tolerance from the other side.
			if gain <= 0 || gain-2*delta > 2*tol {
				return
			}
		}
		if ea-halfE > 0 {
			ea -= gain
		} else {
			ea += gain
		}
		heavy[hi], light[li] = light[li], heavy[hi]
	}
}

// projectBalance removes the components of x along the all-ones vector and
// the degree vector (Gram–Schmidt), keeping Σx ≈ 0 and Σ deg·x ≈ 0 — the
// two balance hyperplanes of the relaxation.
func projectBalance(x, deg []float64, totalDeg float64) {
	if len(x) == 0 {
		return
	}
	n := float64(len(x))
	var sum float64
	for _, v := range x {
		sum += v
	}
	mean := sum / n
	for i := range x {
		x[i] -= mean
	}
	// Degree direction with the ones-component removed.
	meanDeg := totalDeg / n
	var dot, norm2 float64
	for i := range x {
		d := deg[i] - meanDeg
		dot += x[i] * d
		norm2 += d * d
	}
	if norm2 > 0 {
		c := dot / norm2
		for i := range x {
			x[i] -= c * (deg[i] - meanDeg)
		}
	}
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func init() {
	Register("GD", func() Partitioner { return GD{} })
}

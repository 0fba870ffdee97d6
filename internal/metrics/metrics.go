// Package metrics implements the balance and communication metrics of the
// paper's §4.1:
//
//   - Bias B = (max − mean)/mean — chosen because BSP iteration time is set
//     by the slowest (maximum-load) machine (Fig 10).
//   - Jain's fairness index F = (Σx)²/(n·Σx²) ∈ [1/n, 1] (Fig 11).
//   - Edge-cut ratio — cut arcs over total arcs (Table 3, Fig 5a).
//
// plus the per-partition report type shared by the partitioners, the
// experiment harness and the CLI.
package metrics

import (
	"fmt"
	"math"
	"strings"

	"bpart/internal/graph"
)

// Bias returns (max − mean)/mean of the sample. It returns 0 for an empty
// sample or a zero mean (a fully balanced degenerate case).
func Bias(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	maxV, sum := xs[0], 0
	for _, x := range xs {
		if x > maxV {
			maxV = x
		}
		sum += x
	}
	mean := float64(sum) / float64(len(xs))
	if IsZero(mean) {
		return 0
	}
	return (float64(maxV) - mean) / mean
}

// Jain returns Jain's fairness index (Σ|x|)² / (n·Σx²). It is 1 when all
// values are equal and 1/n when a single element holds everything. An empty
// or all-zero sample returns 1 (trivially fair).
func Jain(xs []int) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sumSq float64
	for _, x := range xs {
		v := math.Abs(float64(x))
		sum += v
		sumSq += v * v
	}
	if IsZero(sumSq) {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sumSq)
}

// EdgeCutRatio returns the fraction of arcs crossing partitions under the
// assignment. An edgeless graph has ratio 0.
func EdgeCutRatio(g *graph.Graph, assignment []int) float64 {
	if g.NumEdges() == 0 {
		return 0
	}
	return float64(graph.CountCrossEdges(g, assignment)) / float64(g.NumEdges())
}

// Report summarizes the quality of one partitioning of one graph: the two
// per-dimension balance metrics and the communication metric, exactly the
// three quantities the paper's evaluation revolves around.
type Report struct {
	K           int
	Vertices    []int
	Edges       []int
	VertexBias  float64
	EdgeBias    float64
	VertexJain  float64
	EdgeJain    float64
	CutRatio    float64
	MinPairConn int // minimum arcs between any ordered pair of distinct parts
}

// NewReport computes a full Report for the assignment. computePairConn is
// O(|E|) extra work and only needed by the §3.3 connectivity experiment, so
// it is optional.
func NewReport(g *graph.Graph, assignment []int, k int, computePairConn bool) Report {
	vs, es := graph.PartSizes(g, assignment, k)
	r := Report{
		K:          k,
		Vertices:   vs,
		Edges:      es,
		VertexBias: Bias(vs),
		EdgeBias:   Bias(es),
		VertexJain: Jain(vs),
		EdgeJain:   Jain(es),
		CutRatio:   EdgeCutRatio(g, assignment),
	}
	if computePairConn && k > 1 {
		m := graph.PairConnectivity(g, assignment, k)
		minConn := math.MaxInt
		for a := 0; a < k; a++ {
			for b := 0; b < k; b++ {
				if a != b && m[a][b] < minConn {
					minConn = m[a][b]
				}
			}
		}
		r.MinPairConn = minConn
	}
	return r
}

// String renders a compact multi-line report.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "k=%d  Vbias=%.4f  Ebias=%.4f  Vjain=%.4f  Ejain=%.4f  cut=%.4f\n",
		r.K, r.VertexBias, r.EdgeBias, r.VertexJain, r.EdgeJain, r.CutRatio)
	fmt.Fprintf(&b, "  |Vi|: %v\n  |Ei|: %v", r.Vertices, r.Edges)
	return b.String()
}

// RatioSeries normalizes integer counts by their total, producing the
// "|Vi|/|V|" style series the paper plots in Figs 3, 6 and 8.
func RatioSeries(xs []int) []float64 {
	total := 0
	for _, x := range xs {
		total += x
	}
	out := make([]float64, len(xs))
	if total == 0 {
		return out
	}
	for i, x := range xs {
		out[i] = float64(x) / float64(total)
	}
	return out
}

// Spread returns max/min of a positive sample (the "gap can reach 8×"
// numbers of §2.3); it returns +Inf when min is zero and 1 for an empty
// sample.
func Spread(xs []int) float64 {
	if len(xs) == 0 {
		return 1
	}
	minV, maxV := xs[0], xs[0]
	for _, x := range xs {
		if x < minV {
			minV = x
		}
		if x > maxV {
			maxV = x
		}
	}
	if minV == 0 {
		return math.Inf(1)
	}
	return float64(maxV) / float64(minV)
}

package graph

import (
	"fmt"
	"math"
	"sort"
)

// Stats summarizes the degree structure of a graph. The paper's Table 1
// reports |V|, |E| and average degree for each dataset; MaxDegree and the
// power-law tail diagnostics are used to check that the synthetic graphs in
// internal/gen are scale-free like the originals.
type Stats struct {
	NumVertices int
	NumEdges    int
	AvgDegree   float64
	MaxDegree   int
	// DegreeP50/P90/P99 are out-degree percentiles.
	DegreeP50 int
	DegreeP90 int
	DegreeP99 int
	// GiniDegree is the Gini coefficient of the out-degree distribution
	// (0 = perfectly uniform degrees, →1 = extremely skewed). Scale-free
	// social graphs sit well above 0.5.
	GiniDegree float64
	// ZeroDegree counts vertices with no out-edges.
	ZeroDegree int
}

// ComputeStats scans the graph once and returns its Stats.
func ComputeStats(g *Graph) Stats {
	n := g.NumVertices()
	s := Stats{NumVertices: n, NumEdges: g.NumEdges(), AvgDegree: g.AvgDegree()}
	if n == 0 {
		return s
	}
	deg := g.Degrees()
	sort.Ints(deg)
	s.MaxDegree = deg[n-1]
	s.DegreeP50 = deg[percentileIndex(n, 0.50)]
	s.DegreeP90 = deg[percentileIndex(n, 0.90)]
	s.DegreeP99 = deg[percentileIndex(n, 0.99)]
	for _, d := range deg {
		if d == 0 {
			s.ZeroDegree++
		}
	}
	s.GiniDegree = giniSorted(deg)
	return s
}

func percentileIndex(n int, p float64) int {
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// giniSorted computes the Gini coefficient of a non-decreasing sample.
func giniSorted(xs []int) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	var sum, weighted float64
	for i, x := range xs {
		sum += float64(x)
		weighted += float64(i+1) * float64(x)
	}
	if sum == 0 {
		return 0
	}
	return (2*weighted - float64(n+1)*sum) / (float64(n) * sum)
}

// String renders the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("|V|=%d |E|=%d avg=%.2f max=%d p50=%d p90=%d p99=%d gini=%.3f zero=%d",
		s.NumVertices, s.NumEdges, s.AvgDegree, s.MaxDegree,
		s.DegreeP50, s.DegreeP90, s.DegreeP99, s.GiniDegree, s.ZeroDegree)
}

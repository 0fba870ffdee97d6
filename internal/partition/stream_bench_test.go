package partition

import (
	"fmt"
	"testing"
)

// BenchmarkStreamByK is the small-K/large-K trade of the candidate scorer as
// a number: one Stream call per iteration at BPart's piece counts, bare
// (out-neighbours only, no hard caps — the cheapest per-vertex body) and
// shaped like core's layer call (transpose plus CapV/CapE at slack 1.1).
func BenchmarkStreamByK(b *testing.B) {
	g := twitterish(b)
	in := g.Transpose()
	n, m := g.NumVertices(), g.NumEdges()
	for _, k := range []int{8, 16, 32, 64, 128, 256} {
		for _, shaped := range []bool{false, true} {
			opt := StreamOptions{K: k, C: 0.5}
			name := fmt.Sprintf("K=%d/bare", k)
			if shaped {
				name = fmt.Sprintf("K=%d/in+caps", k)
				opt.In = in
				opt.CapV = int(1.1*float64(n)/float64(k)) + 1
				opt.CapE = int(1.1*float64(m)/float64(k)) + 1
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := Stream(g, opt); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/vertex")
			})
		}
	}
}

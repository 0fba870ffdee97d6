package partition

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/metrics"
	"bpart/internal/partaudit"
)

// referenceStream is the scorer Stream is checked against: the same greedy
// rule written the slow, obvious way — the penalty α·γ·W_i^{γ−1} recomputed
// with math.Pow for every candidate of every vertex, and the skip reason
// carried as the audit string. It streams every vertex in ID order.
func referenceStream(g *graph.Graph, opt StreamOptions) ([]int, StreamStats) {
	n, m := g.NumVertices(), g.NumEdges()
	avgDeg := float64(m) / float64(n)
	if metrics.IsZero(avgDeg) {
		avgDeg = 1
	}
	alpha := float64(m) * math.Pow(float64(opt.K), opt.Gamma-1) / math.Pow(float64(n), opt.Gamma)
	if alpha <= 0 {
		alpha = 1
	}
	capW := 1.1 * float64(n) / float64(opt.K)

	parts := fillUnassigned(n)
	vCount := make([]int, opt.K)
	eCount := make([]int, opt.K)
	w := make([]float64, opt.K)
	stats := StreamStats{Placed: int64(n)}
	for v := graph.VertexID(0); int(v) < n; v++ {
		affinity := make([]int, opt.K)
		rows := [][]graph.VertexID{g.Neighbors(v)}
		if opt.In != nil {
			rows = append(rows, opt.In.Neighbors(v))
		}
		for _, row := range rows {
			for _, u := range row {
				if parts[u] != Unassigned {
					affinity[parts[u]]++
				}
			}
		}
		d := g.OutDegree(v)
		dec := opt.Audit.SampleDecision(v, d)
		cause := partaudit.CauseGreedy
		best, bestScore := -1, math.Inf(-1)
		for i := 0; i < opt.K; i++ {
			pen := alpha * opt.Gamma * math.Pow(w[i], opt.Gamma-1)
			score := float64(affinity[i]) - pen
			skip := ""
			switch {
			case w[i] >= capW:
				stats.CapWSkips++
				skip = partaudit.SkipCapW
			case opt.CapV > 0 && vCount[i]+1 > opt.CapV:
				stats.CapVSkips++
				skip = partaudit.SkipCapV
			case opt.CapE > 0 && eCount[i]+d > opt.CapE:
				stats.CapESkips++
				skip = partaudit.SkipCapE
			}
			if dec != nil {
				dec.Candidate(i, affinity[i], pen, score, skip)
			}
			if skip != "" {
				continue
			}
			if score > bestScore {
				best, bestScore = i, score
				cause = partaudit.CauseGreedy
			} else if metrics.TieEq(score, bestScore) && best >= 0 && w[i] < w[best] {
				best = i
				stats.TieBreaks++
				cause = partaudit.CauseTieBreak
			}
		}
		if best == -1 {
			stats.Fallbacks++
			cause = partaudit.CauseFallback
			best = 0
			for i := 1; i < opt.K; i++ {
				if w[i] < w[best] {
					best = i
				}
			}
		}
		parts[v] = best
		vCount[best]++
		eCount[best] += d
		w[best] += opt.C + (1-opt.C)*float64(d)/avgDeg
		opt.Audit.Place(v, d, best, cause, dec, parts)
	}
	opt.Audit.End()
	return parts, stats
}

// TestStreamMatchesReferenceScorer holds the cached-penalty loop to the
// per-candidate reference: same assignment, same stats and, when audited,
// the same audit log byte for byte.
func TestStreamMatchesReferenceScorer(t *testing.T) {
	g, err := gen.ChungLu(gen.Config{
		NumVertices: 3000, AvgDegree: 12, Skew: 0.78, Locality: 0.45, Window: 256, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := g.Transpose()
	n, m := g.NumVertices(), g.NumEdges()

	type scorer func(StreamOptions) ([]int, StreamStats)
	reference := func(o StreamOptions) ([]int, StreamStats) { return referenceStream(g, o) }
	product := func(o StreamOptions) ([]int, StreamStats) {
		res, err := Stream(g, o)
		if err != nil {
			t.Fatal(err)
		}
		return res.Parts, res.Stats
	}
	audited := func(run scorer, o StreamOptions) ([]int, StreamStats, []byte) {
		var log bytes.Buffer
		aud, err := partaudit.New(&log, partaudit.Config{SampleEvery: 97})
		if err != nil {
			t.Fatal(err)
		}
		aud.Begin("stream", g, o.K)
		o.Audit = aud.Stream(0, g, in, o.K)
		parts, stats := run(o)
		if err := aud.Close(); err != nil {
			t.Fatal(err)
		}
		return parts, stats, log.Bytes()
	}

	var sawSkips, sawTies bool
	for _, k := range []int{2, 16, 256} {
		for _, c := range []float64{0, 0.5, 1} {
			for _, gamma := range []float64{1.2, 1.5, 2} {
				for _, variant := range []struct{ caps, in bool }{{false, false}, {false, true}, {true, false}, {true, true}} {
					opt := StreamOptions{K: k, C: c, Gamma: gamma}
					if variant.caps {
						opt.CapV = n/k + 1
						opt.CapE = m/k + m/(4*k)
					}
					if variant.in {
						opt.In = in
					}
					name := fmt.Sprintf("k=%d c=%v gamma=%v %+v", k, c, gamma, variant)

					wantParts, wantStats := reference(opt)
					_, _, wantLog := audited(reference, opt)
					gotParts, gotStats := product(opt)
					if !reflect.DeepEqual(gotParts, wantParts) || gotStats != wantStats {
						t.Fatalf("%s: stream differs from the reference scorer: stats %+v, reference %+v",
							name, gotStats, wantStats)
					}
					gotParts, gotStats, gotLog := audited(product, opt)
					if !reflect.DeepEqual(gotParts, wantParts) || gotStats != wantStats {
						t.Fatalf("%s: audited stream differs from the unaudited reference", name)
					}
					if !bytes.Equal(gotLog, wantLog) {
						t.Fatalf("%s: audit log differs from the reference scorer's", name)
					}
					sawSkips = sawSkips || wantStats.CapWSkips+wantStats.CapVSkips+wantStats.CapESkips > 0
					sawTies = sawTies || wantStats.TieBreaks > 0
				}
			}
		}
	}
	if !sawSkips || !sawTies {
		t.Fatalf("grid never exercised cap skips (%v) or tie-breaks (%v)", sawSkips, sawTies)
	}
}

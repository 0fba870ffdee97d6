package partition

import (
	"bpart/internal/graph"
	"bpart/internal/metrics"
	"bpart/internal/partaudit"
	"bpart/internal/telemetry"
)

// LDG is the Linear Deterministic Greedy streaming partitioner of Stanton
// and Kliot (KDD'12), the earliest widely used streaming heuristic and a
// common baseline in the streaming-partitioning literature the paper
// surveys (§5). Each vertex goes to the part maximizing
//
//	|V_i ∩ N(v)| · (1 − |V_i|/capacity),
//
// i.e. neighbor affinity with a linear occupancy discount; ties fall to
// the lightest part, and capacity is DefaultSlack·n/k. Like Fennel it
// balances only the vertex dimension.
type LDG struct {
	tr telemetry.Tracer
}

// Name implements Partitioner.
func (LDG) Name() string { return "LDG" }

// SetTelemetry implements telemetry.Instrumentable, as Fennel's does.
func (l *LDG) SetTelemetry(tr telemetry.Tracer, reg *telemetry.Registry) {
	l.tr = telemetry.Tee(tr, reg)
}

// Partition implements Partitioner.
func (l LDG) Partition(g *graph.Graph, k int) (*Assignment, error) {
	if err := checkArgs(g, k); err != nil {
		return nil, err
	}
	n := g.NumVertices()
	capacity := DefaultSlack * float64(n) / float64(k)
	if capacity < 1 {
		capacity = 1
	}
	in := g.In()
	tr := telemetry.Safe(l.tr)
	if tr.Enabled() {
		partaudit.Emit(tr, partaudit.NewHeader("LDG", g, k))
	}
	rec := partaudit.NewStream(tr, g, k)
	parts := make([]int, n)
	for i := range parts {
		parts[i] = Unassigned
	}
	size := make([]int, k)
	affinity := make([]int, k)
	touched := make([]int, k+1) // parts with affinity > 0, see tally
	for v := 0; v < n; v++ {
		nt := tally(g.Neighbors(graph.VertexID(v)), parts, affinity, touched, 0)
		nt = tally(in.Neighbors(graph.VertexID(v)), parts, affinity, touched, nt)
		d := g.OutDegree(graph.VertexID(v))
		dec := rec.SampleDecision(graph.VertexID(v), d)
		cause := partaudit.CauseGreedy
		best, bestScore := -1, -1.0
		for i := 0; i < k; i++ {
			// LDG's multiplicative score decomposes additively as
			// aff·(1−size/cap) = aff − aff·size/cap, so the audit's
			// affinity/penalty split stays meaningful.
			if float64(size[i]) >= capacity {
				if dec != nil {
					pen := float64(affinity[i]) * float64(size[i]) / capacity
					dec.Candidate(i, affinity[i], pen, float64(affinity[i])-pen, partaudit.SkipCapV)
				}
				continue
			}
			score := float64(affinity[i]) * (1 - float64(size[i])/capacity)
			if dec != nil {
				dec.Candidate(i, affinity[i], float64(affinity[i])*float64(size[i])/capacity, score, "")
			}
			if score > bestScore {
				best, bestScore = i, score
				cause = partaudit.CauseGreedy
			} else if metrics.TieEq(score, bestScore) && best >= 0 && size[i] < size[best] {
				best, bestScore = i, score
				cause = partaudit.CauseTieBreak
			}
		}
		for _, i := range touched[:nt] {
			affinity[i] = 0
		}
		if best == -1 {
			cause = partaudit.CauseFallback
			best = 0
			for i := 1; i < k; i++ {
				if size[i] < size[best] {
					best = i
				}
			}
		}
		parts[v] = best
		size[best]++
		rec.Place(graph.VertexID(v), d, best, cause, dec, parts)
	}
	rec.End()
	auditFinal(tr, g, parts, k)
	return &Assignment{Parts: parts, K: k}, nil
}

func init() {
	// Registered as a pointer so a tracer can be attached after
	// construction (telemetry.Instrumentable).
	Register("LDG", func() Partitioner { return &LDG{} })
}

// Package commview is the communication-topology half of the repo's
// observability story: internal/cluster (with SetCommMatrix enabled)
// records a per-superstep K×K src→dst message matrix into its
// "cluster.superstep" trace events, traceview decodes it with the rest of
// the superstep (its Work.Pairs), and commview is the statistics
// over the supersteps that carry one.
//
// The paper's core claim is that two-dimensional balance flattens
// communication load across machines; aggregate per-machine message counts
// (traceview's view) cannot show *who talks to whom*, so this package
// derives the topology-level quantities — comm imbalance ratio,
// per-machine in/out skew, hot-pair attribution with runner-up slack
// (mirroring traceview's straggler pattern) — and a reconciliation bridge
// correlating observed traffic against the partitioner's predicted edge
// cut from the partition's audit events (partaudit). cmd/tracestat's `comm` subcommand is
// the CLI over this package.
package commview

import (
	"fmt"

	"bpart/internal/cluster"
	"bpart/internal/traceview"
)

// withMatrix keeps the supersteps that carry a comm matrix, in order. A
// trace recorded with capture off (or a pre-commview trace) keeps none,
// which is not an error — the report says so.
func withMatrix(steps []traceview.Superstep) []traceview.Superstep {
	var out []traceview.Superstep
	for _, st := range steps {
		if st.Work.Pairs != nil {
			out = append(out, st)
		}
	}
	return out
}

// FromRunStats returns a live run's matrix-carrying iterations as
// supersteps, numbered by their index in the run — the in-process path the
// BENCH artifact and the Comm Matrix experiment use, bypassing the JSONL
// round-trip. Phase is "" throughout (the RunStats carry no phase kinds).
func FromRunStats(stats *cluster.RunStats) []traceview.Superstep {
	steps := make([]traceview.Superstep, len(stats.Iterations))
	for i, it := range stats.Iterations {
		steps[i] = traceview.Superstep{Iteration: i, IterationStats: it}
	}
	return withMatrix(steps)
}

// CheckMessages verifies the reconciliation invariant on every superstep
// that carries a matrix: row i must sum to the flat Messages[i] counter
// exactly, and the diagonal must be zero (a machine never messages itself).
// A violation means an engine updated one counter without the other —
// corrupted instrumentation, not a quality problem — so it is an error, not
// a metric.
func CheckMessages(steps []traceview.Superstep) error {
	for _, st := range steps {
		for i, row := range st.Work.Pairs {
			var sum int64
			for j, n := range row {
				if n < 0 {
					return fmt.Errorf("commview: superstep %d: negative pair count %d at [%d][%d]", st.Iteration, n, i, j)
				}
				if i == j && n != 0 {
					return fmt.Errorf("commview: superstep %d: machine %d messages itself (%d)", st.Iteration, i, n)
				}
				sum += n
			}
			if sum != st.Work.Messages[i] {
				return fmt.Errorf("commview: superstep %d: machine %d row sum %d != messages %d", st.Iteration, i, sum, st.Work.Messages[i])
			}
		}
	}
	return nil
}

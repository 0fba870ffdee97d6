// Package commview is the communication-topology half of the repo's
// observability story: internal/cluster (with SetCommMatrix enabled)
// records a per-superstep K×K src→dst message matrix into its
// "cluster.superstep" trace events, and commview reads it back.
//
// The paper's core claim is that two-dimensional balance flattens
// communication load across machines; aggregate per-machine message counts
// (traceview's view) cannot show *who talks to whom*, so this package
// derives the topology-level quantities — comm imbalance ratio,
// per-machine in/out skew, hot-pair attribution with runner-up slack
// (mirroring traceview's straggler pattern) — and a reconciliation bridge
// correlating observed traffic against the partitioner's predicted edge
// cut from the partaudit timeline. cmd/tracestat's `comm` subcommand is
// the CLI over this package.
package commview

import (
	"fmt"
	"io"

	"bpart/internal/cluster"
	"bpart/internal/recordlog"
	"bpart/internal/traceview"
)

// Superstep is one decoded superstep's communication matrix plus the flat
// counters it must reconcile with.
type Superstep struct {
	// Iteration is the cluster's monotone superstep number (shared across
	// algorithm supersteps and recovery phases of one cluster).
	Iteration int
	// Machines is the cluster size K.
	Machines int
	// Phase is "" for an algorithm superstep, or the recovery phase kind
	// ("checkpoint", "restore", "restream") for a barrier the fault
	// controller charged.
	Phase string
	// Pairs[i][j] counts messages charged to machine i whose remote peer
	// is machine j. The diagonal is zero and row i sums to Messages[i].
	Pairs [][]int64
	// Messages, Edges and Steps echo the flat per-machine counters of the
	// same superstep (Edges and Steps feed the observed-cut-share side of
	// the partaudit reconciliation).
	Messages []int64
	Edges    []int64
	Steps    []int64
}

// Log is a fully decoded comm-matrix stream.
type Log struct {
	Steps []Superstep
	// Truncated mirrors traceview.Trace.Truncated: the underlying trace's
	// final line was torn, the decoded prefix is complete and usable.
	Truncated bool
}

// Read parses a JSONL trace and decodes its comm matrices. It inherits
// traceview.Read's tolerance contract exactly: only a torn final line is
// tolerated (flagged via Log.Truncated), interior damage or an
// all-garbage first line is a hard error. A valid trace whose supersteps
// carry no "pairs" attr (matrix capture was off) decodes to zero steps,
// which is not an error — the caller decides how to report it.
func Read(r io.Reader) (*Log, error) {
	tr, err := traceview.Read(r)
	if err != nil {
		return nil, err
	}
	steps, err := FromTrace(tr)
	if err != nil {
		return nil, err
	}
	return &Log{Steps: steps, Truncated: tr.Truncated}, nil
}

// ReadFile parses the JSONL trace at path.
func ReadFile(path string) (*Log, error) { return recordlog.ReadFile(path, Read) }

// FromTrace decodes the comm matrix of every cluster.superstep event that
// carries one, in trace order. Supersteps without a "pairs" attr (capture
// disabled, or a pre-commview trace) are skipped silently; a present but
// malformed matrix — wrong shape, non-numeric cells — is a hard error,
// since a silently dropped matrix would skew every derived statistic.
func FromTrace(tr *traceview.Trace) ([]Superstep, error) {
	var out []Superstep
	for _, r := range tr.Events("cluster.superstep") {
		raw, present := r.Attrs["pairs"]
		if !present {
			continue
		}
		st := Superstep{}
		var ok bool
		if st.Iteration, ok = r.Int("iteration"); !ok {
			return nil, fmt.Errorf("commview: superstep record missing iteration attr")
		}
		if st.Machines, ok = r.Int("machines"); !ok {
			return nil, fmt.Errorf("commview: superstep %d missing machines attr", st.Iteration)
		}
		st.Phase, _ = r.Str("phase")
		if st.Pairs, ok = decodePairs(raw, st.Machines); !ok {
			return nil, fmt.Errorf("commview: superstep %d: bad pairs matrix (want %d×%d numbers)", st.Iteration, st.Machines, st.Machines)
		}
		for _, f := range []struct {
			key string
			dst *[]int64
		}{{"messages", &st.Messages}, {"edges", &st.Edges}, {"steps", &st.Steps}} {
			v, ok := r.Ints(f.key)
			if !ok || len(v) != st.Machines {
				return nil, fmt.Errorf("commview: superstep %d: bad %s array (want %d machines)", st.Iteration, f.key, st.Machines)
			}
			*f.dst = v
		}
		out = append(out, st)
	}
	return out, nil
}

// decodePairs converts the JSON-decoded pairs attr ([]any of []any of
// float64) into a k×k matrix.
func decodePairs(raw any, k int) ([][]int64, bool) {
	rows, ok := raw.([]any)
	if !ok || len(rows) != k {
		return nil, false
	}
	out := make([][]int64, k)
	for i, rr := range rows {
		cells, ok := rr.([]any)
		if !ok || len(cells) != k {
			return nil, false
		}
		row := make([]int64, k)
		for j, c := range cells {
			f, ok := c.(float64)
			if !ok {
				return nil, false
			}
			row[j] = int64(f)
		}
		out[i] = row
	}
	return out, true
}

// FromRunStats decodes comm matrices straight from a live run's RunStats —
// the in-process path the BENCH artifact and the Comm Matrix experiment
// use, bypassing the JSONL round-trip. Iterations without a captured
// matrix are skipped, mirroring FromTrace; Phase is "" throughout (the
// RunStats carry no phase kinds).
func FromRunStats(stats *cluster.RunStats) []Superstep {
	var out []Superstep
	for i := range stats.Iterations {
		it := &stats.Iterations[i]
		if it.Work.Pairs == nil {
			continue
		}
		out = append(out, Superstep{
			Iteration: i,
			Machines:  len(it.Compute),
			Pairs:     it.Work.Pairs,
			Messages:  it.Work.Messages,
			Edges:     it.Work.Edges,
			Steps:     it.Work.Steps,
		})
	}
	return out
}

// GroupRuns splits a superstep stream into runs, exactly as
// traceview.GroupRuns does: the cluster numbers supersteps monotonically
// per instance, so an iteration reset or a machine-count change starts a
// new run.
func GroupRuns(steps []Superstep) [][]Superstep {
	var runs [][]Superstep
	for i, st := range steps {
		if i == 0 || st.Iteration <= steps[i-1].Iteration || st.Machines != steps[i-1].Machines {
			runs = append(runs, nil)
		}
		runs[len(runs)-1] = append(runs[len(runs)-1], st)
	}
	return runs
}

// CheckMessages verifies the reconciliation invariant on every superstep:
// matrix row i must sum to the flat Messages[i] counter exactly, and the
// diagonal must be zero (a machine never messages itself). A violation
// means an engine updated one counter without the other — corrupted
// instrumentation, not a quality problem — so it is an error, not a metric.
func CheckMessages(steps []Superstep) error {
	for _, st := range steps {
		for i, row := range st.Pairs {
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
			if sum != st.Messages[i] {
				return fmt.Errorf("commview: superstep %d: machine %d row sum %d != messages %d", st.Iteration, i, sum, st.Messages[i])
			}
		}
	}
	return nil
}

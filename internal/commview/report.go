package commview

import (
	"fmt"
	"io"

	"bpart/internal/partaudit"
	"bpart/internal/report"
	"bpart/internal/traceview"
)

// Row caps of the terminal report. The summary always covers the whole
// run.
const (
	// maxMatrix is the largest machine count whose full K×K matrix is
	// printed; larger clusters get only the skew and pair sections.
	maxMatrix = 16
	// maxSupersteps caps the per-superstep evolution table.
	maxSupersteps = 16
)

// WriteReport renders the terminal comm-topology report: per run, the
// summed src→dst matrix, per-machine in/out skew, hot-pair attribution
// with runner-up slack, the per-superstep evolution, and (with the
// partition's audit attached) the predicted-vs-observed reconciliation.
//
// steps is what traceview.Supersteps decoded (supersteps without a matrix
// are skipped) and truncated is that trace's Truncated flag. audit, when
// non-nil, adds the reconciliation section to every run.
func WriteReport(w io.Writer, steps []traceview.Superstep, truncated bool, audit *partaudit.Audit) error {
	ew := &report.Printer{W: w}
	steps = withMatrix(steps)
	if truncated {
		ew.Printf("WARNING: final trace line torn (run crashed mid-write); analyzing the intact prefix\n")
	}
	if len(steps) == 0 {
		ew.Printf("No comm matrices in trace: matrix capture was off (enable with Cluster.SetCommMatrix).\n")
		return ew.Err
	}
	for i, run := range traceview.GroupRuns(steps) {
		writeRun(ew, i+1, run, audit)
	}
	return ew.Err
}

func writeRun(ew *report.Printer, idx int, run []traceview.Superstep, audit *partaudit.Audit) {
	s := Summarize(run)
	recovery := 0
	for _, st := range run {
		if st.Phase != "" {
			recovery++
		}
	}
	ew.Printf("RUN %d: %d machines, %d supersteps (%d recovery), %d cross-machine messages\n",
		idx, s.Machines, s.Supersteps, recovery, s.Messages)
	ew.Printf("  comm imbalance ratio %.4f  (max machine traffic / mean; 1.0 = flat)\n", s.ImbalanceRatio)
	ew.Printf("  pair fairness (Jain) %.4f over %d/%d active pairs\n",
		s.PairJain, s.ActivePairs, s.Machines*(s.Machines-1))
	if s.HotSrc >= 0 {
		ew.Printf("  hot pair M%d->M%d: %d messages (lead over runner-up: %d)\n",
			s.HotSrc, s.HotDst, s.HotMessages, s.HotSlack)
	}

	if s.Machines <= maxMatrix {
		writeMatrix(ew, &s)
	} else {
		ew.Printf("  (matrix elided: %d machines > %d)\n", s.Machines, maxMatrix)
	}
	writeSkew(ew, &s)
	writeEvolution(ew, run, &s)
	if audit != nil {
		writeReconcile(ew, run, audit)
	}
}

func writeMatrix(ew *report.Printer, s *Summary) {
	// Column width fits the widest cell so the grid stays aligned.
	width := max(6, 1+report.Max(len(s.Matrix), func(i int) int {
		return report.Max(len(s.Matrix[i]), func(j int) int { return len(fmt.Sprintf("%d", s.Matrix[i][j])) })
	}))
	ew.Printf("  src\\dst matrix (messages over the whole run):\n")
	ew.Printf("    %4s", "")
	for j := 0; j < s.Machines; j++ {
		ew.Printf("%*s", width, fmt.Sprintf("M%d", j))
	}
	ew.Printf("\n")
	for i, row := range s.Matrix {
		ew.Printf("    %-4s", fmt.Sprintf("M%d", i))
		for j, n := range row {
			if i == j {
				ew.Printf("%*s", width, ".")
			} else {
				ew.Printf("%*d", width, n)
			}
		}
		ew.Printf("\n")
	}
}

func writeSkew(ew *report.Printer, s *Summary) {
	max := report.Max(len(s.Out), func(i int) int64 { return s.Out[i] + s.In[i] })
	ew.Printf("  per-machine out/in skew:\n")
	for i := range s.Out {
		ew.Printf("    M%-2d %s out %-10d in %-10d\n",
			i, report.Bar(float64(s.Out[i]+s.In[i]), float64(max), 20), s.Out[i], s.In[i])
	}
}

func writeEvolution(ew *report.Printer, run []traceview.Superstep, s *Summary) {
	max := report.Max(len(s.PerStepMessages), func(i int) int64 { return s.PerStepMessages[i] })
	ew.Printf("  per-superstep evolution (messages, active pairs):\n")
	for i, st := range run {
		if i >= maxSupersteps {
			ew.Printf("    ... %d more supersteps elided\n", len(run)-i)
			break
		}
		label := ""
		if st.Phase != "" {
			label = "  [" + st.Phase + "]"
		}
		ew.Printf("    %5d  %s %-10d pairs %d%s\n",
			st.Iteration, report.Bar(float64(s.PerStepMessages[i]), float64(max), 20),
			s.PerStepMessages[i], s.PerStepActivePairs[i], label)
	}
}

func writeReconcile(ew *report.Printer, run []traceview.Superstep, audit *partaudit.Audit) {
	r, err := Reconcile(run, audit)
	if err != nil {
		ew.Printf("  reconciliation vs partitioner: %v\n", err)
		return
	}
	ew.Printf("  reconciliation vs partitioner:\n")
	ew.Printf("    observed cut share  %.4f  (%d messages / %d opportunities)\n",
		r.ObservedCutShare, r.Messages, r.Opportunities)
	ew.Printf("    predicted cut ratio %.4f  (from audit log)\n", r.PredictedCutRatio)
	ew.Printf("    gap %+.4f  (negative: mirrors/dedup saved traffic; drifting positive: placement degraded)\n", r.Gap)
}

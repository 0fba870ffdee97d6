package traceview

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"bpart/internal/report"
)

// Row caps of the terminal report. The summary lines always cover the
// whole run.
const (
	maxSupersteps = 16 // rows of the per-run straggler table
	maxTreeSpans  = 64 // rows of the phase-tree listing
)

// fmtUS renders a simulated-or-wall microsecond quantity with a readable
// unit.
func fmtUS(us float64) string {
	switch {
	case us >= 1e6:
		return fmt.Sprintf("%.2fs", us/1e6)
	case us >= 1e3:
		return fmt.Sprintf("%.1fms", us/1e3)
	default:
		return fmt.Sprintf("%.1fus", us)
	}
}

// fmtBytes renders a byte count with a binary unit suffix.
func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// WriteReport renders the full terminal report: trace summary, span
// aggregates (with each name's alloc/GC deltas when the spans carry
// res_*), phase tree, and — per run — straggler attribution, the
// WaitRatio decomposition and the critical-path split.
func WriteReport(w io.Writer, tr *Trace) error {
	steps, err := Supersteps(tr) // before the first byte: bad input fails the report, not half of it
	if err != nil {
		return err
	}
	sums, err := SummarizeSpans(tr) // likewise
	if err != nil {
		return err
	}
	ew := &report.Printer{W: w}
	writeSummary(ew, tr)
	writeSpanTable(ew, sums)
	writeTree(ew, tr)
	if len(steps) == 0 {
		ew.Printf("\nNo cluster.superstep records: trace carries no BSP runs.\n")
		return ew.Err
	}
	for i, run := range GroupRuns(steps) {
		writeRun(ew, i+1, run)
	}
	return ew.Err
}

func writeSummary(ew *report.Printer, tr *Trace) {
	spans, events, errs := 0, 0, 0
	for _, r := range tr.Records {
		switch r.Type {
		case "span":
			spans++
		case "event":
			events++
		default:
			errs++
		}
	}
	ew.Printf("TRACE SUMMARY\n")
	ew.Printf("  records %d  (spans %d, events %d, degraded %d)\n", len(tr.Records), spans, events, errs)
	if start, end, ok := tr.Bounds(); ok {
		ew.Printf("  wall span %s\n", fmtUS(float64(end.Sub(start).Microseconds())))
	}
	if tr.Truncated {
		ew.Printf("  WARNING: final line torn (run crashed mid-write); analyzing the intact prefix\n")
	}
}

// writeSpanTable lists the span names. When any span carried res_*
// deltas, three columns show them; a row that measured none shows "-".
func writeSpanTable(ew *report.Printer, sums []NameSummary) {
	if len(sums) == 0 {
		return
	}
	measured := func(s NameSummary) bool {
		return s.Allocs != 0 || s.AllocBytes != 0 || s.GCCycles != 0 || s.GCPauseUS != 0
	}
	res := slices.ContainsFunc(sums, measured)
	nameW := max(len("name"), report.Max(len(sums), func(i int) int { return len(sums[i].Name) }))
	row := func(name, count, total, maxUS string, resCells ...any) {
		ew.Printf("  %-*s  %6s  %10s  %10s", nameW, name, count, total, maxUS)
		if res {
			ew.Printf("  %10s  %8s  %12s", resCells...)
		}
		ew.Printf("\n")
	}
	ew.Printf("\nSPANS BY NAME\n")
	row("name", "count", "total", "max", "alloc", "allocs", "gc")
	for _, s := range sums {
		cells := []any{"-", "-", "-"}
		if measured(s) {
			cells = []any{fmtBytes(s.AllocBytes), fmt.Sprint(s.Allocs), fmt.Sprintf("%d (%s)", s.GCCycles, fmtUS(s.GCPauseUS))}
		}
		row(s.Name, fmt.Sprint(s.Count), fmtUS(s.TotalUS), fmtUS(s.MaxUS), cells...)
	}
}

func writeTree(ew *report.Printer, tr *Trace) {
	root := BuildTree(tr)
	if len(root.Children) == 0 {
		return
	}
	ew.Printf("\nPHASE TREE\n")
	shown, total := 0, 0
	root.Walk(func(n *SpanNode, depth int) {
		if n.Rec == nil {
			return
		}
		total++
		if shown >= maxTreeSpans {
			return
		}
		shown++
		ew.Printf("  %s%s %s\n", strings.Repeat("  ", depth), n.Rec.Name, fmtUS(n.Rec.DurUS))
	})
	if total > shown {
		ew.Printf("  ... %d more spans elided\n", total-shown)
	}
}

func writeRun(ew *report.Printer, idx int, run []Superstep) {
	b := DecomposeWaitRatio(run)
	ew.Printf("\nRUN %d: %d machines, %d supersteps, sim time %s\n", idx, b.Machines, b.Supersteps, fmtUS(b.TotalTimeUS))
	ew.Printf("  wait ratio %.4f  (share of cluster capacity idle at barriers)\n", b.WaitRatio)
	if b.Machines > 0 {
		maxC := report.Max(len(b.Contribution), func(i int) float64 { return b.Contribution[i] })
		ew.Printf("  per-machine contribution (terms sum to the wait ratio):\n")
		for i, c := range b.Contribution {
			ew.Printf("    M%-2d %s %.4f  (idle %s)\n", i, report.Bar(c, maxC, 20), c, fmtUS(b.WaitUS[i]))
		}
	}

	writeStragglers(ew, run)
	writeCritPath(ew, run)
}

func writeStragglers(ew *report.Printer, run []Superstep) {
	strag := Stragglers(run)
	ew.Printf("  straggler attribution (machine bounding each barrier, and its lead over the runner-up):\n")
	ew.Printf("    %5s  %8s %10s %10s  %8s %10s %10s\n", "iter", "compute", "time", "slack", "comm", "time", "slack")
	for i, s := range strag {
		if i >= maxSupersteps {
			ew.Printf("    ... %d more supersteps elided\n", len(strag)-i)
			break
		}
		ew.Printf("    %5d  %8s %10s %10s  %8s %10s %10s\n",
			s.Iteration,
			fmt.Sprintf("M%d", s.ComputeMachine), fmtUS(s.ComputeUS), fmtUS(s.ComputeSlackUS),
			fmt.Sprintf("M%d", s.CommMachine), fmtUS(s.CommUS), fmtUS(s.CommSlackUS))
	}
	// Aggregate: how often each machine bound a phase.
	k := len(run[0].Compute)
	computeBound := make([]int, k)
	commBound := make([]int, k)
	for _, s := range strag {
		if s.ComputeMachine >= 0 && s.ComputeMachine < k {
			computeBound[s.ComputeMachine]++
		}
		if s.CommMachine >= 0 && s.CommMachine < k {
			commBound[s.CommMachine]++
		}
	}
	ew.Printf("    bound-count by machine:")
	for i := 0; i < k; i++ {
		if computeBound[i] > 0 || commBound[i] > 0 {
			ew.Printf("  M%d compute:%d comm:%d", i, computeBound[i], commBound[i])
		}
	}
	ew.Printf("\n")
}

func writeCritPath(ew *report.Printer, run []Superstep) {
	cp := ComputeCriticalPath(run)
	if cp.TotalUS <= 0 {
		return
	}
	ew.Printf("  critical path (sequential phases): compute %s (%.1f%%)  comm %s (%.1f%%)  latency %s (%.1f%%)\n",
		fmtUS(cp.ComputeUS), 100*cp.ComputeUS/cp.TotalUS,
		fmtUS(cp.CommUS), 100*cp.CommUS/cp.TotalUS,
		fmtUS(cp.LatencyUS), 100*cp.LatencyUS/cp.TotalUS)
	domIdx, domUS, _ := argmaxSlack(cp.OnPathUS)
	if domIdx >= 0 && domUS > 0 {
		ew.Printf("  dominant machine on path: M%d with %s (%.1f%% of sim time)\n", domIdx, fmtUS(domUS), 100*domUS/cp.TotalUS)
	}
}

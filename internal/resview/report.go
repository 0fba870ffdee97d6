package resview

import (
	"fmt"
	"io"

	"bpart/internal/report"
	"bpart/internal/traceview"
)

// maxPhases caps the phase breakdown tables.
const maxPhases = 16

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

// fmtUS renders microseconds at millisecond/second granularity.
func fmtUS(us float64) string {
	switch {
	case us >= 1e6:
		return fmt.Sprintf("%.2fs", us/1e6)
	case us >= 1e3:
		return fmt.Sprintf("%.2fms", us/1e3)
	default:
		return fmt.Sprintf("%.0fµs", us)
	}
}

// records is the number of resource records behind phases.
func records(phases []PhaseSummary) (n int) {
	for _, s := range phases {
		n += s.Count
	}
	return n
}

// WriteReport renders the terminal resource report of tr (what
// traceview.Read returned for a -trace file): each phase's inclusive wall
// time and its alloc/GC attribution. The "schema v1" in the header names
// the res_* attr set; the line is pinned by the golden reports.
func WriteReport(w io.Writer, tr *traceview.Trace) error {
	phases, err := Summarize(tr) // before the first byte: bad input fails the command, not half a report
	if err != nil {
		return err
	}
	ew := &report.Printer{W: w}
	if tr.Truncated {
		ew.Printf("WARNING: final log line torn (run crashed mid-write); analyzing the intact prefix\n")
	}
	if len(phases) == 0 {
		ew.Printf("No resource records: capture was off (record the run with -trace).\n")
		return ew.Err
	}
	ew.Printf("RESOURCES: %d records across %d phases (schema v1)\n", records(phases), len(phases))
	writePhases(ew, phases)
	writeAllocs(ew, phases)
	return ew.Err
}

func writePhases(ew *report.Printer, phases []PhaseSummary) {
	maxWall := report.Max(len(phases), func(i int) float64 { return phases[i].WallUS })
	ew.Printf("  phase wall time (inclusive: a span's row counts its nested spans):\n")
	for i, s := range phases {
		if i >= maxPhases {
			ew.Printf("    ... %d more phases elided\n", len(phases)-i)
			break
		}
		ew.Printf("    %-24s %s %10s  x%d\n",
			s.Phase, report.Bar(s.WallUS, maxWall, 20), fmtUS(s.WallUS), s.Count)
	}
}

func writeAllocs(ew *report.Printer, phases []PhaseSummary) {
	maxBytes := report.Max(len(phases), func(i int) int64 { return phases[i].AllocBytes })
	ew.Printf("  allocation / GC attribution:\n")
	for i, s := range phases {
		if i >= maxPhases {
			ew.Printf("    ... %d more phases elided\n", len(phases)-i)
			break
		}
		gc := ""
		if s.GCCycles > 0 {
			gc = fmt.Sprintf("  gc %d (pause %s)", s.GCCycles, fmtUS(s.GCPauseUS))
		}
		ew.Printf("    %-24s %s %10s  %d allocs%s\n",
			s.Phase, report.Bar(float64(s.AllocBytes), float64(maxBytes), 20), fmtBytes(s.AllocBytes), s.Allocs, gc)
	}
}

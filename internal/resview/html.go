package resview

import (
	"io"

	"bpart/internal/report"
	"bpart/internal/traceview"
)

// WriteHTML renders the self-contained resource page: horizontal bar
// charts for each phase's inclusive wall time and allocation attribution.
// Same chrome as the trace, audit and comm pages (report.Page), no
// external assets.
func WriteHTML(w io.Writer, tr *traceview.Trace, title string) error {
	phases, err := Summarize(tr)
	if err != nil {
		return err
	}
	return report.Page(w, title, func(ew *report.Printer) {
		if tr.Truncated {
			ew.Printf("<p class=\"warn\">final log line torn; analyzing the intact prefix</p>\n")
		}
		if len(phases) == 0 {
			ew.Printf("<p class=\"meta\">No resource records: capture was off (record the run with -trace).</p>\n")
			return
		}
		ew.Printf("<p class=\"meta\">%d records across %d phases (schema v1)</p>\n", records(phases), len(phases))
		writeBarsHTML(ew, "Phase wall time (inclusive of nested spans)", phases, func(s *PhaseSummary) (float64, string) {
			return s.WallUS, fmtUS(s.WallUS)
		})
		writeBarsHTML(ew, "Allocation attribution", phases, func(s *PhaseSummary) (float64, string) {
			return float64(s.AllocBytes), fmtBytes(s.AllocBytes)
		})
	})
}

// writeBarsHTML draws one horizontal bar per phase, scaled to the largest
// value the metric takes.
func writeBarsHTML(ew *report.Printer, title string, phases []PhaseSummary, metric func(*PhaseSummary) (float64, string)) {
	const rowH, barMax, label = 18, 360, 190
	max := report.Max(len(phases), func(i int) float64 { v, _ := metric(&phases[i]); return v })
	ew.Printf("<h2>%s</h2>\n", title)
	ew.Printf("<svg width=\"%d\" height=\"%d\">\n", label+barMax+120, len(phases)*rowH+10)
	for i := range phases {
		s := &phases[i]
		v, txt := metric(s)
		w := 0
		if max > 0 {
			w = int(v / max * barMax)
		}
		y := 5 + i*rowH
		ew.Printf("<text class=\"lbl\" x=\"%d\" y=\"%d\" text-anchor=\"end\">%s</text>\n",
			label-6, y+12, s.Phase)
		ew.Printf("<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"#69c\"><title>%s: %s (%d records)</title></rect>\n",
			label, y+2, w, rowH-5, s.Phase, txt, s.Count)
		ew.Printf("<text class=\"lbl\" x=\"%d\" y=\"%d\">%s</text>\n", label+w+4, y+12, txt)
	}
	ew.Printf("</svg>\n")
}

package resview

import (
	"fmt"
	"io"

	"bpart/internal/report"
	"bpart/internal/traceview"
)

// WriteHTML renders the self-contained resource page: horizontal bar
// charts for phase self-time and allocation attribution, and — when the
// log carries Parallel Speedup records — one speedup-curve SVG per scheme
// with the ideal linear-scaling diagonal for reference. Same chrome as the
// trace, audit and comm pages (report.Page), no external assets.
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
			ew.Printf("<p class=\"meta\">No resource records: capture was off (enable with -resources / resview.NewProbe).</p>\n")
			return
		}
		ew.Printf("<p class=\"meta\">%d records across %d phases (schema v1)</p>\n", records(phases), len(phases))
		writeBarsHTML(ew, "Phase self-time", phases, func(s *PhaseSummary) (float64, string) {
			return s.WallUS, fmtUS(s.WallUS)
		})
		writeBarsHTML(ew, "Allocation attribution", phases, func(s *PhaseSummary) (float64, string) {
			return float64(s.AllocBytes), fmtBytes(s.AllocBytes)
		})
		for _, c := range Curves(tr) {
			writeCurveSVG(ew, c)
		}
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

// writeCurveSVG draws one scheme's speedup curve (measured polyline over
// the dashed ideal diagonal) with the per-point efficiency as hover text.
func writeCurveSVG(ew *report.Printer, c ScalingCurve) {
	const plotW, plotH, pad = 320, 200, 36
	maxW := max(1, report.Max(len(c.Points), func(i int) int { return c.Points[i].Workers }))
	// The ideal diagonal tops out at maxW; scale the y axis to whichever
	// of measured/ideal reaches higher so both stay in frame.
	maxS := max(float64(maxW), report.Max(len(c.Points), func(i int) float64 { return c.Points[i].Speedup }))
	x := func(workers int) int { return pad + int(float64(workers-1)/float64(max(maxW-1, 1))*plotW) }
	y := func(speedup float64) int { return pad + plotH - int(speedup/maxS*float64(plotH)) }
	ew.Printf("<h2>Scaling: %s</h2>\n", c.Scheme)
	ew.Printf("<svg width=\"%d\" height=\"%d\">\n", pad*2+plotW+60, pad*2+plotH)
	ew.Printf("<line x1=\"%d\" y1=\"%d\" x2=\"%d\" y2=\"%d\" stroke=\"#999\" stroke-dasharray=\"4 3\"/>\n",
		x(1), y(1), x(maxW), y(float64(maxW)))
	poly := ""
	for _, pt := range c.Points {
		poly += fmt.Sprintf("%d,%d ", x(pt.Workers), y(pt.Speedup))
	}
	ew.Printf("<polyline points=\"%s\" fill=\"none\" stroke=\"#69c\" stroke-width=\"2\"/>\n", poly)
	for _, pt := range c.Points {
		ew.Printf("<circle cx=\"%d\" cy=\"%d\" r=\"3\" fill=\"#247\"><title>%d workers: %s, speedup %.2fx, efficiency %.1f%%</title></circle>\n",
			x(pt.Workers), y(pt.Speedup), pt.Workers, fmtUS(pt.WallUS), pt.Speedup, pt.Efficiency*100)
		ew.Printf("<text class=\"lbl\" x=\"%d\" y=\"%d\" text-anchor=\"middle\">%d</text>\n",
			x(pt.Workers), pad+plotH+14, pt.Workers)
	}
	ew.Printf("<text class=\"lbl\" x=\"%d\" y=\"%d\">workers</text>\n", pad+plotW+8, pad+plotH+14)
	ew.Printf("<text class=\"lbl\" x=\"%d\" y=\"%d\">speedup</text>\n", 2, pad-8)
	ew.Printf("</svg>\n")
}

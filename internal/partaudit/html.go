package partaudit

import (
	"html"
	"io"

	"bpart/internal/report"
)

// WriteTimelineHTML renders the streaming quality timeline as one
// self-contained HTML file (report.Page chrome, no server, no external
// assets): a line chart of vertex bias, edge bias and cut ratio per
// window, segmented by layer, plus the final report — how balance in both
// dimensions evolved as the stream progressed.
func WriteTimelineHTML(w io.Writer, l *Audit) error {
	return report.Page(w, "bpart audit timeline", func(ew *report.Printer) {
		if h := l.Header; h != nil {
			ew.Printf("<p class=meta>%s · k=%d · n=%d · m=%d · window %d · %d windows, %d sampled decisions</p>\n",
				html.EscapeString(h.Scheme), h.K, h.Vertices, h.Edges, h.Window, len(l.Windows), len(l.Decisions))
		}
		if l.Truncated {
			ew.Printf("<p class=warn>audit log truncated: final line torn (crashed run); showing intact prefix</p>\n")
		}
		writeHTMLChart(ew, l)
		writeHTMLFinal(ew, l)
	})
}

func writeHTMLChart(ew *report.Printer, l *Audit) {
	if len(l.Windows) == 0 {
		ew.Printf("<p class=meta>no window records</p>\n")
		return
	}
	const (
		chartW = 1000
		chartH = 220
		padL   = 40
		padB   = 24
	)
	maxY := report.Max(len(l.Windows), func(i int) float64 {
		win := l.Windows[i]
		return max(win.VBias, win.EBias, win.CutRatio)
	})
	if maxY <= 0 {
		maxY = 1
	}
	n := len(l.Windows)
	x := func(i int) float64 {
		if n == 1 {
			return padL + chartW/2
		}
		return padL + float64(i)/float64(n-1)*chartW
	}
	y := func(v float64) float64 { return float64(chartH) - v/maxY*float64(chartH) + 8 }
	ew.Printf("<h2>Streaming quality timeline</h2>\n")
	ew.Printf("<p class=legend><span style=\"background:#4878b0\">vertex bias</span><span style=\"background:#b07848\">edge bias</span><span style=\"background:#5b9a68\">cut ratio</span></p>\n")
	ew.Printf("<svg width=\"%d\" height=\"%d\">\n", chartW+padL+20, chartH+padB+16)
	series := []struct {
		color string
		pick  func(Window) float64
	}{
		{"#4878b0", func(w Window) float64 { return w.VBias }},
		{"#b07848", func(w Window) float64 { return w.EBias }},
		{"#5b9a68", func(w Window) float64 { return w.CutRatio }},
	}
	for _, s := range series {
		ew.Printf("<polyline fill=\"none\" stroke=\"%s\" stroke-width=\"1.5\" points=\"", s.color)
		for i, win := range l.Windows {
			ew.Printf("%.1f,%.1f ", x(i), y(s.pick(win)))
		}
		ew.Printf("\"/>\n")
	}
	// Layer boundaries: a vertical rule wherever the layer changes.
	for i := 1; i < n; i++ {
		if l.Windows[i].Layer != l.Windows[i-1].Layer {
			ew.Printf("<line x1=\"%.1f\" y1=\"8\" x2=\"%.1f\" y2=\"%d\" stroke=\"#ccc\" stroke-dasharray=\"3,3\"/>\n",
				x(i), x(i), chartH+8)
			ew.Printf("<text class=lbl x=\"%.1f\" y=\"%d\">layer %d</text>\n", x(i)+3, chartH+20, l.Windows[i].Layer)
		}
	}
	ew.Printf("<text class=lbl x=\"2\" y=\"14\">%.3f</text>\n", maxY)
	ew.Printf("<text class=lbl x=\"2\" y=\"%d\">0</text>\n", chartH+8)
	ew.Printf("</svg>\n")
}

func writeHTMLFinal(ew *report.Printer, l *Audit) {
	f := l.Final
	if f == nil {
		return
	}
	ew.Printf("<h2>Final report</h2>\n")
	ew.Printf("<p class=meta>k=%d · vertex bias %.4f · edge bias %.4f · cut ratio %.4f · refine moves %d</p>\n",
		f.K, f.VBias, f.EBias, f.CutRatio, f.RefineMoves)
}

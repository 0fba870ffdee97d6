package servestats

import (
	"fmt"
	"io"
	"math"

	"bpart/internal/report"
)

// WriteHTML renders the report as a self-contained HTML page (report.Page
// chrome, inline SVG, no external assets): a per-endpoint latency
// percentile chart and a per-part request-share/p99 heatmap — the visual
// answer to "which parts carry the tail". attrib may be nil when no
// assignment was available to attribute against.
func WriteHTML(w io.Writer, rep *Report, attrib []Attribution) error {
	return report.Page(w, "bpart serving latency", func(ew *report.Printer) {
		ew.Printf("<p class=\"meta\">%d requests, %d routed to parts", rep.Total, rep.Routed)
		if rep.Truncated {
			ew.Printf(" <span class=\"warn\">(log truncated: torn final line)</span>")
		}
		ew.Printf("</p>\n")
		writeEndpointSVG(ew, rep)
		writePartSVG(ew, rep, attrib)
	})
}

// logScale maps a latency (µs) onto [0, width] with a log axis topping out
// at max.
func logScale(us, max float64, width int) float64 {
	if us <= 1 || max <= 1 {
		return 0
	}
	f := math.Log(us) / math.Log(max)
	if f > 1 {
		f = 1
	}
	return f * float64(width)
}

func writeEndpointSVG(ew *report.Printer, rep *Report) {
	ew.Printf("<h2>Latency percentiles per endpoint</h2>\n")
	const rowH, width = 26, 640
	maxP999 := max(1, report.Max(len(rep.Endpoints), func(i int) float64 { return rep.Endpoints[i].P999 }))
	h := len(rep.Endpoints)*rowH + 24
	ew.Printf("<svg width=\"%d\" height=\"%d\">\n", width+160, h)
	for i, e := range rep.Endpoints {
		y := i*rowH + 16
		// Bar to p99; ticks at p50/p95/p999.
		ew.Printf("<text class=\"lbl\" x=\"4\" y=\"%d\">%s (n=%d)</text>\n", y+12, e.Endpoint, e.Count)
		x0 := 140.0
		ew.Printf("<rect x=\"%.1f\" y=\"%d\" width=\"%.1f\" height=\"14\" fill=\"#4a90d9\"/>\n",
			x0, y, logScale(e.P99, maxP999, width))
		for _, tick := range []struct {
			us    float64
			color string
		}{{e.P50, "#222"}, {e.P95, "#a60"}, {e.P999, "#b00"}} {
			ew.Printf("<rect x=\"%.1f\" y=\"%d\" width=\"2\" height=\"14\" fill=\"%s\"/>\n",
				x0+logScale(tick.us, maxP999, width), y, tick.color)
		}
		ew.Printf("<text class=\"lbl\" x=\"%.1f\" y=\"%d\">p50 %.0fµs · p95 %.0fµs · p99 %.0fµs · p999 %.0fµs</text>\n",
			x0+4, y-2, e.P50, e.P95, e.P99, e.P999)
	}
	ew.Printf("</svg>\n")
}

func writePartSVG(ew *report.Printer, rep *Report, attrib []Attribution) {
	if len(rep.Parts) == 0 {
		return
	}
	ew.Printf("<h2>Per-part request share and tail</h2>\n")
	const cellW, cellH = 56, 44
	maxP99 := max(1, report.Max(len(rep.Parts), func(i int) float64 { return rep.Parts[i].P99 }))
	pressure := map[int]float64{}
	for _, a := range attrib {
		pressure[a.Part] = a.Pressure
	}
	ew.Printf("<svg width=\"%d\" height=\"%d\">\n", len(rep.Parts)*cellW+8, cellH+40)
	for i, p := range rep.Parts {
		x := i*cellW + 4
		// Heat: p99 relative to the hottest part.
		heat := int(200 * p.P99 / maxP99)
		ew.Printf("<rect x=\"%d\" y=\"4\" width=\"%d\" height=\"%d\" fill=\"rgb(%d,%d,%d)\"/>\n",
			x, cellW-4, cellH, 55+heat, 80, 235-heat)
		ew.Printf("<text class=\"lbl\" x=\"%d\" y=\"%d\" fill=\"#fff\">p%d</text>\n", x+4, 20, p.Part)
		label := fmt.Sprintf("%.1f%% · p99 %.0fµs", 100*p.Share, p.P99)
		if pr, ok := pressure[p.Part]; ok {
			label += fmt.Sprintf(" · ×%.2f", pr)
		}
		ew.Printf("<text class=\"lbl\" x=\"%d\" y=\"%d\">%s</text>\n", x, cellH+20, label)
	}
	ew.Printf("</svg>\n")
	ew.Printf("<p class=\"meta\">×N is request pressure: the part's request share over its vertex share (1.00 = load exactly proportional to size).</p>\n")
}

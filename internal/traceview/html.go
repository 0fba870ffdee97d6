package traceview

import (
	"html"
	"io"
	"time"

	"bpart/internal/report"
)

// WriteHTML renders the trace as one self-contained HTML file: a span
// timeline (rows in phase-tree order, bars on the trace's wall-clock
// axis) and, per run, a per-superstep chart stacking each machine's
// compute, communication and waiting time — Fig 12/13 as an artifact you
// can open in a browser with no server and no external assets.
func WriteHTML(w io.Writer, tr *Trace) error {
	steps, err := Supersteps(tr) // before the first byte: bad input fails the page, not half of it
	if err != nil {
		return err
	}
	return report.Page(w, "bpart trace timeline", func(ew *report.Printer) {
		writeHTMLSummary(ew, tr)
		writeHTMLSpans(ew, tr)
		for i, run := range GroupRuns(steps) {
			writeHTMLRun(ew, i+1, run)
		}
	})
}

func writeHTMLSummary(ew *report.Printer, tr *Trace) {
	spans, events := 0, 0
	for _, r := range tr.Records {
		switch r.Type {
		case "span":
			spans++
		case "event":
			events++
		}
	}
	ew.Printf("<p class=meta>%d records (%d spans, %d events)", len(tr.Records), spans, events)
	if start, end, ok := tr.Bounds(); ok {
		ew.Printf(" · wall span %s · start %s", fmtUS(float64(end.Sub(start).Microseconds())),
			html.EscapeString(start.UTC().Format(time.RFC3339Nano)))
	}
	ew.Printf("</p>\n")
	if tr.Truncated {
		ew.Printf("<p class=warn>trace truncated: final line torn (crashed run); showing intact prefix</p>\n")
	}
}

// maxHTMLSpans bounds the timeline so a bench-scale trace still renders
// instantly; elided spans are counted below the chart.
const maxHTMLSpans = 500

func writeHTMLSpans(ew *report.Printer, tr *Trace) {
	root := BuildTree(tr)
	if len(root.Children) == 0 {
		return
	}
	start, end, _ := tr.Bounds()
	total := float64(end.Sub(start).Microseconds())
	if total <= 0 {
		total = 1
	}
	type row struct {
		node  *SpanNode
		depth int
	}
	var rows []row
	skipped := 0
	root.Walk(func(n *SpanNode, depth int) {
		if n.Rec == nil {
			return
		}
		if len(rows) >= maxHTMLSpans {
			skipped++
			return
		}
		rows = append(rows, row{n, depth})
	})
	const (
		chartW = 1000
		labelW = 280
		rowH   = 16
	)
	h := len(rows)*rowH + 24
	ew.Printf("<h2>Span timeline</h2>\n")
	ew.Printf("<svg width=\"%d\" height=\"%d\">\n", chartW+labelW+20, h)
	palette := []string{"#4878b0", "#5b9a68", "#b07848", "#8868a8", "#a85868"}
	for i, rw := range rows {
		rec := rw.node.Rec
		y := 12 + i*rowH
		offUS := float64(rec.Time.Sub(start).Microseconds())
		x := labelW + offUS/total*chartW
		wid := rec.DurUS / total * chartW
		if wid < 1.5 {
			wid = 1.5
		}
		color := palette[rw.depth%len(palette)]
		ew.Printf("<text class=lbl x=\"%d\" y=\"%d\">%s</text>\n",
			4+rw.depth*10, y+11, html.EscapeString(rec.Name))
		ew.Printf("<rect x=\"%.1f\" y=\"%d\" width=\"%.1f\" height=\"%d\" fill=\"%s\"><title>%s — %s</title></rect>\n",
			x, y+2, wid, rowH-4, color,
			html.EscapeString(rec.Name), html.EscapeString(fmtUS(rec.DurUS)))
	}
	ew.Printf("</svg>\n")
	if skipped > 0 {
		ew.Printf("<p class=meta>%d spans elided</p>\n", skipped)
	}
}

func writeHTMLRun(ew *report.Printer, idx int, run []Superstep) {
	b := DecomposeWaitRatio(run)
	cp := ComputeCriticalPath(run)
	ew.Printf("<h2>Run %d — %d machines, %d supersteps</h2>\n", idx, b.Machines, b.Supersteps)
	ew.Printf("<p class=meta>sim time %s · wait ratio %.4f · critical path: compute %.1f%%, comm %.1f%%, latency %.1f%%</p>\n",
		fmtUS(b.TotalTimeUS), b.WaitRatio,
		pctOf(cp.ComputeUS, cp.TotalUS), pctOf(cp.CommUS, cp.TotalUS), pctOf(cp.LatencyUS, cp.TotalUS))
	ew.Printf("<p class=legend><span style=\"background:#4878b0\">compute</span><span style=\"background:#b07848\">comm</span><span style=\"background:#999\">waiting</span></p>\n")

	// One column group per superstep, one stacked bar per machine.
	maxBusy := report.Max(len(run), func(s int) float64 {
		st := run[s]
		return report.Max(len(st.Compute), func(m int) float64 { return st.Compute[m] + st.Comm[m] + st.Waiting[m] })
	})
	if maxBusy <= 0 {
		maxBusy = 1
	}
	const (
		barW   = 6
		gap    = 10
		chartH = 160
	)
	k := b.Machines
	groupW := k*barW + gap
	w := len(run)*groupW + 40
	ew.Printf("<svg width=\"%d\" height=\"%d\">\n", w, chartH+30)
	for si, st := range run {
		x0 := 20 + si*groupW
		for m := 0; m < k; m++ {
			x := x0 + m*barW
			segs := []struct {
				v     float64
				color string
			}{
				{st.Compute[m], "#4878b0"},
				{st.Comm[m], "#b07848"},
				{st.Waiting[m], "#999"},
			}
			y := float64(chartH + 10)
			for _, s := range segs {
				hh := s.v / maxBusy * chartH
				y -= hh
				ew.Printf("<rect x=\"%d\" y=\"%.1f\" width=\"%d\" height=\"%.1f\" fill=\"%s\"><title>iter %d M%d: %s</title></rect>\n",
					x, y, barW-1, hh, s.color, st.Iteration, m, html.EscapeString(fmtUS(s.v)))
			}
		}
		ew.Printf("<text class=lbl x=\"%d\" y=\"%d\">%d</text>\n", x0, chartH+24, st.Iteration)
	}
	ew.Printf("</svg>\n")
}

func pctOf(v, total float64) float64 {
	if total <= 0 {
		return 0
	}
	return 100 * v / total
}

package commview

import (
	"fmt"
	"io"

	"bpart/internal/report"
	"bpart/internal/traceview"
)

// WriteHTML renders the self-contained comm-topology page: per run, an SVG
// src→dst heatmap of the summed matrix and a per-superstep traffic
// evolution strip. Same chrome as the trace and audit timelines
// (report.Page), no external assets, byte-deterministic for a
// deterministic trace.
func WriteHTML(w io.Writer, steps []traceview.Superstep, truncated bool, title string) error {
	return report.Page(w, title, func(ew *report.Printer) {
		if truncated {
			ew.Printf("<p class=\"warn\">final trace line torn; analyzing the intact prefix</p>\n")
		}
		runs := traceview.GroupRuns(withMatrix(steps))
		if len(runs) == 0 {
			ew.Printf("<p class=\"meta\">No comm matrices in trace: matrix capture was off (enable with Cluster.SetCommMatrix).</p>\n")
		}
		for i, run := range runs {
			writeRunHTML(ew, i+1, run)
		}
	})
}

func writeRunHTML(ew *report.Printer, idx int, run []traceview.Superstep) {
	s := Summarize(run)
	ew.Printf("<h2>Run %d</h2>\n", idx)
	ew.Printf("<p class=\"meta\">%d machines, %d supersteps, %d messages — imbalance %.4f, pair Jain %.4f",
		s.Machines, s.Supersteps, s.Messages, s.ImbalanceRatio, s.PairJain)
	if s.HotSrc >= 0 {
		ew.Printf(", hot pair M%d&rarr;M%d (%d, slack %d)", s.HotSrc, s.HotDst, s.HotMessages, s.HotSlack)
	}
	ew.Printf("</p>\n")
	writeHeatmap(ew, &s)
	writeEvolutionSVG(ew, run, &s)
}

// writeHeatmap draws the K×K matrix as a colored grid: white = no traffic,
// saturated red = the run's hottest pair.
func writeHeatmap(ew *report.Printer, s *Summary) {
	const cell, label = 26, 34
	k := s.Machines
	wpx := label + k*cell + 10
	hpx := label + k*cell + 10
	max := report.Max(len(s.Matrix), func(i int) int64 {
		return report.Max(len(s.Matrix[i]), func(j int) int64 { return s.Matrix[i][j] })
	})
	ew.Printf("<svg width=\"%d\" height=\"%d\">\n", wpx, hpx)
	for j := 0; j < k; j++ {
		ew.Printf("<text class=\"lbl\" x=\"%d\" y=\"%d\" text-anchor=\"middle\">M%d</text>\n",
			label+j*cell+cell/2, label-8, j)
	}
	for i := 0; i < k; i++ {
		ew.Printf("<text class=\"lbl\" x=\"%d\" y=\"%d\" text-anchor=\"end\">M%d</text>\n",
			label-6, label+i*cell+cell/2+4, i)
		for j := 0; j < k; j++ {
			n := s.Matrix[i][j]
			fill := "#eee"
			if i != j && max > 0 {
				// Intensity ramps white→red with load share.
				g := int(240 - 200*float64(n)/float64(max))
				fill = fmt.Sprintf("rgb(240,%d,%d)", g, g)
			}
			ew.Printf("<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"%s\" stroke=\"#ccc\"><title>M%d&rarr;M%d: %d</title></rect>\n",
				label+j*cell, label+i*cell, cell, cell, fill, i, j, n)
		}
	}
	ew.Printf("</svg>\n")
}

// writeEvolutionSVG draws per-superstep total traffic as a bar strip;
// recovery-phase bars are outlined darker so restream spikes stand out.
func writeEvolutionSVG(ew *report.Printer, run []traceview.Superstep, s *Summary) {
	const barW, maxH, base = 6, 60, 14
	max := report.Max(len(s.PerStepMessages), func(i int) int64 { return s.PerStepMessages[i] })
	if max == 0 {
		return
	}
	wpx := len(run)*barW + 10
	ew.Printf("<p class=\"meta\">per-superstep traffic (dark = recovery phase)</p>\n")
	ew.Printf("<svg width=\"%d\" height=\"%d\">\n", wpx, maxH+base)
	for i, st := range run {
		h := int(float64(s.PerStepMessages[i]) / float64(max) * maxH)
		if h < 1 && s.PerStepMessages[i] > 0 {
			h = 1
		}
		fill := "#69c"
		if st.Phase != "" {
			fill = "#333"
		}
		ew.Printf("<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" fill=\"%s\"><title>superstep %d: %d</title></rect>\n",
			5+i*barW, maxH-h, barW-1, h, fill, st.Iteration, s.PerStepMessages[i])
	}
	ew.Printf("</svg>\n")
}

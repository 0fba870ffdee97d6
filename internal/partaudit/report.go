package partaudit

import (
	"fmt"
	"io"

	"bpart/internal/report"
)

func writeHeaderLine(ew *report.Printer, l *Audit) {
	if h := l.Header; h != nil {
		ew.Printf("AUDIT: %s  k=%d  n=%d  m=%d  (sampled every %d, hub degree >= %d, window %d)\n",
			h.Scheme, h.K, h.Vertices, h.Edges, h.SampleEvery, h.HubDegree, h.Window)
	}
	if l.Truncated {
		ew.Printf("  WARNING: final line torn (run crashed mid-write); showing the intact prefix\n")
	}
}

// WriteExplain renders every sampled decision for one vertex: the full
// per-piece score table (affinity − penalty = score, capacity skips), the
// chosen piece, the cause and the runner-up gap — `tracestat explain`.
func WriteExplain(w io.Writer, l *Audit, vertex int) error {
	ew := &report.Printer{W: w}
	writeHeaderLine(ew, l)
	var decs []Decision
	for _, d := range l.Decisions {
		if d.Vertex == vertex {
			decs = append(decs, d)
		}
	}
	if len(decs) == 0 {
		if ew.Err != nil {
			return ew.Err
		}
		every, nHubs := 0, 0
		if h := l.Header; h != nil {
			every, nHubs = h.SampleEvery, h.Hubs
		}
		return fmt.Errorf("partaudit: vertex %d has no sampled decisions (sampled: every %s stream position plus the %d top-out-degree hubs)",
			vertex, ordinal(every), nHubs)
	}
	for _, d := range decs {
		ew.Printf("\nvertex %d  layer %d  stream position %d  out-degree %d\n", d.Vertex, d.Layer, d.Pos, d.Degree)
		ew.Printf("  placed on piece %d (%s)", d.Piece, d.Cause)
		if d.RunnerUp >= 0 {
			ew.Printf("; runner-up piece %d trails by %.4f", d.RunnerUp, d.Gap)
		}
		ew.Printf("\n")
		ew.Printf("  %5s  %8s  %10s  %10s  %s\n", "piece", "affinity", "penalty", "score", "")
		for _, c := range d.Cands {
			marker := ""
			switch {
			case c.Piece == d.Piece:
				marker = "<- chosen"
			case c.Skip != "":
				marker = "skipped: " + c.Skip
			case c.Piece == d.RunnerUp:
				marker = "runner-up"
			}
			ew.Printf("  %5d  %8d  %10.4f  %10.4f  %s\n", c.Piece, c.Affinity, c.Penalty, c.Score, marker)
		}
	}
	return ew.Err
}

func ordinal(n int) string {
	if n <= 0 {
		return "Nth"
	}
	return fmt.Sprintf("%dth", n)
}

// WriteTimeline renders the streaming quality timeline — one row per
// window with vertex/edge bias and cut ratio — and the final report row,
// which equals Evaluate's Report — `tracestat timeline`.
func WriteTimeline(w io.Writer, l *Audit) error {
	ew := &report.Printer{W: w}
	writeHeaderLine(ew, l)
	if len(l.Windows) == 0 {
		ew.Printf("no window records: the audited run placed no vertices\n")
		return ew.Err
	}
	maxBias := report.Max(len(l.Windows), func(i int) float64 { return max(l.Windows[i].VBias, l.Windows[i].EBias) })
	ew.Printf("\n  %5s %6s %8s  %8s %-12s  %8s %-12s  %9s\n",
		"layer", "win", "placed", "v_bias", "", "e_bias", "", "cut_ratio")
	for _, win := range l.Windows {
		ew.Printf("  %5d %6d %8d  %8.4f %-12s  %8.4f %-12s  %9.4f\n",
			win.Layer, win.Index, win.Placed,
			win.VBias, report.Bar(win.VBias, maxBias, 12),
			win.EBias, report.Bar(win.EBias, maxBias, 12),
			win.CutRatio)
	}
	if f := l.Final; f != nil {
		ew.Printf("\n  final (= Evaluate's Report): k=%d  v_bias %.4f  e_bias %.4f  cut_ratio %.4f  refine moves %d\n",
			f.K, f.VBias, f.EBias, f.CutRatio, f.RefineMoves)
	}
	return ew.Err
}

// WriteCombine renders the combining audit tree: per layer, the pairing
// rounds (vertex-lightest group merged with vertex-heaviest — the
// inverse-proportionality rationale), every group's deviation and freeze
// outcome, and the predicted-vs-actual final balance — `tracestat
// combine`.
func WriteCombine(w io.Writer, l *Audit) error {
	ew := &report.Printer{W: w}
	writeHeaderLine(ew, l)
	if len(l.Layers) == 0 {
		ew.Printf("no layer records: the audited scheme has no combining phase (single-phase stream)\n")
		return ew.Err
	}
	for _, lr := range l.Layers {
		ew.Printf("\nLAYER %d: %d pieces -> targets |V|=%.1f |E|=%.1f per part (epsilon %.3f)\n",
			lr.Layer, lr.Pieces, lr.TargetV, lr.TargetE, lr.Epsilon)
		round := -1
		for _, m := range l.Merges {
			if m.Layer != lr.Layer {
				continue
			}
			if m.Round != round {
				round = m.Round
				ew.Printf("  round %d:\n", round)
			}
			ew.Printf("    merge v-light %v (|V|=%d |E|=%d) + v-heavy %v (|V|=%d |E|=%d) -> |V|=%d |E|=%d\n",
				m.APieces, m.AV, m.AE, m.BPieces, m.BV, m.BE, m.AV+m.BV, m.AE+m.BE)
		}
		frozen := 0
		for _, grp := range lr.Groups {
			status := "dissolved into next layer"
			if grp.Final >= 0 {
				status = fmt.Sprintf("FROZEN as part %d", grp.Final)
				frozen++
			}
			ew.Printf("  group %v: |V|=%d (dev %.3f) |E|=%d (dev %.3f) — %s\n",
				grp.Pieces, grp.V, grp.VDev, grp.E, grp.EDev, status)
		}
		ew.Printf("  %d/%d groups frozen\n", frozen, len(lr.Groups))
	}
	if f := l.Final; f != nil {
		ew.Printf("\nFINAL: k=%d  v_bias %.4f  e_bias %.4f  cut_ratio %.4f\n", f.K, f.VBias, f.EBias, f.CutRatio)
		if len(f.PredictedV) == len(f.V) && len(f.PredictedE) == len(f.E) {
			ew.Printf("  predicted at freeze vs actual after refine (%d moves):\n", f.RefineMoves)
			ew.Printf("  %5s  %10s %10s  %10s %10s\n", "part", "pred |V|", "act |V|", "pred |E|", "act |E|")
			for i := range f.V {
				ew.Printf("  %5d  %10d %10d  %10d %10d\n", i, f.PredictedV[i], f.V[i], f.PredictedE[i], f.E[i])
			}
		}
	}
	return ew.Err
}

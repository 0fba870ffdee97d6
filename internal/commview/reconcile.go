package commview

import (
	"fmt"

	"bpart/internal/partaudit"
	"bpart/internal/traceview"
)

// Reconciliation correlates the traffic a run actually generated against
// the edge cut its partitioner predicted — the bridge between the
// partaudit timeline (what the streaming heuristic thought it was buying)
// and the comm matrix (what the cluster then paid).
type Reconciliation struct {
	// ObservedCutShare is the run's cross-machine messages divided by its
	// message opportunities: Σmessages / Σ(edges+steps) over algorithm
	// supersteps. Push engines send one message per cut edge scanned
	// (edges is the opportunity count; steps is zero), the walk engine
	// one per walker step that crosses machines (steps counts, edges is
	// zero), so the share is the traffic-weighted cut ratio the run
	// actually experienced.
	ObservedCutShare float64
	// PredictedCutRatio is the partitioner's cut ratio from its audit
	// events (the final record, falling back to the last window of a crashed run).
	PredictedCutRatio float64
	// Gap = ObservedCutShare − PredictedCutRatio. Near zero for push
	// iteration engines on static placements; pull mode's mirror dedup
	// drives it negative, fault restreaming moves it as the placement
	// degrades — the gap's sign and drift are the signal, not noise.
	Gap float64
	// Messages and Opportunities are the raw numerator and denominator
	// behind ObservedCutShare.
	Messages      int64
	Opportunities int64
}

// Reconcile derives the Reconciliation of one run against the audit of the
// partition it ran on.
// Recovery-phase supersteps (Phase != "") are excluded from the observed
// side: restream transfers are placement surgery, not edge traffic, and
// would skew the cut-share estimate they exist to explain. Errors: a run
// with no message opportunities, or an audit carrying neither a final
// record nor any window.
func Reconcile(run []traceview.Superstep, audit *partaudit.Audit) (Reconciliation, error) {
	var r Reconciliation
	for _, st := range run {
		if st.Phase != "" {
			continue
		}
		w := &st.Work
		for i := range w.Messages {
			r.Messages += w.Messages[i]
			r.Opportunities += w.Edges[i] + w.Steps[i]
		}
	}
	if r.Opportunities == 0 {
		return r, fmt.Errorf("commview: reconcile: run has no message opportunities (no algorithm supersteps with edge or step work)")
	}
	r.ObservedCutShare = float64(r.Messages) / float64(r.Opportunities)
	switch {
	case audit.Final != nil:
		r.PredictedCutRatio = audit.Final.CutRatio
	case len(audit.Windows) > 0:
		r.PredictedCutRatio = audit.Windows[len(audit.Windows)-1].CutRatio
	default:
		return r, fmt.Errorf("commview: reconcile: the audit has no final record and no windows")
	}
	r.Gap = r.ObservedCutShare - r.PredictedCutRatio
	return r, nil
}

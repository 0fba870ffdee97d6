package traceview

import (
	"fmt"
	"io"
	"math"
	"sort"

	"bpart/internal/report"
)

// DiffMetric compares one quantity between two traces. All metrics here
// are lower-is-better, so a positive DeltaPct is a regression of trace B
// against baseline A.
type DiffMetric struct {
	Name string
	A, B float64
	// Gate marks metrics eligible for the -fail-above regression gate:
	// the deterministic simulation quantities. Wall-clock span durations
	// are reported but never gate, since they vary run to run.
	Gate bool
}

// DeltaPct is the relative change of B vs A in percent (0 when A is 0 —
// a metric that appears from nothing is reported but has no meaningful
// ratio).
func (m DiffMetric) DeltaPct() float64 {
	if m.A == 0 {
		return 0
	}
	return (m.B - m.A) / m.A * 100
}

// DiffReport is the comparison of two traces — typically the same workload
// under two partitioners, or before/after an optimization.
type DiffReport struct {
	Metrics []DiffMetric
}

// Diff compares two parsed traces. Superstep-derived quantities aggregate
// across all runs in each trace; per-span-name wall totals cover the
// phases both traces share plus any that appear on one side only.
func Diff(a, b *Trace) (*DiffReport, error) {
	sa, err := Supersteps(a)
	if err != nil {
		return nil, fmt.Errorf("trace A: %w", err)
	}
	sb, err := Supersteps(b)
	if err != nil {
		return nil, fmt.Errorf("trace B: %w", err)
	}
	d := &DiffReport{}
	add := func(name string, av, bv float64, gate bool) {
		d.Metrics = append(d.Metrics, DiffMetric{Name: name, A: av, B: bv, Gate: gate})
	}
	aAgg, bAgg := aggregate(sa), aggregate(sb)
	add("sim_time_us", aAgg.simTimeUS, bAgg.simTimeUS, true)
	add("wait_ratio", aAgg.waitRatio(), bAgg.waitRatio(), true)
	add("messages_total", float64(aAgg.messages), float64(bAgg.messages), true)
	add("supersteps", float64(aAgg.supersteps), float64(bAgg.supersteps), true)

	av, bv := SummarizeSpans(a), SummarizeSpans(b)
	names := map[string][2]float64{}
	for _, s := range av {
		names[s.Name] = [2]float64{s.TotalUS, 0}
	}
	for _, s := range bv {
		e := names[s.Name]
		e[1] = s.TotalUS
		names[s.Name] = e
	}
	ordered := make([]string, 0, len(names))
	for n := range names {
		ordered = append(ordered, n)
	}
	sort.Strings(ordered)
	for _, n := range ordered {
		add("span:"+n+":wall_us", names[n][0], names[n][1], false)
	}
	return d, nil
}

// aggregate folds a whole trace's supersteps (all runs) into totals.
type aggTotals struct {
	simTimeUS  float64
	capacityUS float64 // Σ per-run TimeUS·machines
	waitUS     float64
	messages   int64
	supersteps int
}

func aggregate(steps []Superstep) aggTotals {
	var t aggTotals
	for _, st := range steps {
		t.simTimeUS += st.TimeUS
		t.capacityUS += st.TimeUS * float64(st.Machines)
		for _, w := range st.Waiting {
			t.waitUS += w
		}
		for _, m := range st.Messages {
			t.messages += m
		}
		t.supersteps++
	}
	return t
}

func (t aggTotals) waitRatio() float64 {
	if t.capacityUS == 0 {
		return 0
	}
	return t.waitUS / t.capacityUS
}

// WorstGateRegression returns the gated metric with the largest positive
// DeltaPct (the worst regression), or ok=false when nothing gated
// regressed.
func (d *DiffReport) WorstGateRegression() (DiffMetric, bool) {
	worst := DiffMetric{}
	found := false
	for _, m := range d.Metrics {
		if !m.Gate || m.DeltaPct() <= 0 {
			continue
		}
		if !found || m.DeltaPct() > worst.DeltaPct() {
			worst, found = m, true
		}
	}
	return worst, found
}

// WriteText renders the comparison as an aligned table.
func (d *DiffReport) WriteText(w io.Writer, failAbovePct float64) error {
	ew := &report.Printer{W: w}
	ew.Printf("TRACE DIFF (A = baseline, B = candidate; lower is better)\n")
	nameW := max(len("metric"), report.Max(len(d.Metrics), func(i int) int { return len(d.Metrics[i].Name) }))
	ew.Printf("  %-*s  %14s  %14s  %9s  %s\n", nameW, "metric", "A", "B", "delta", "gate")
	for _, m := range d.Metrics {
		gate := ""
		if m.Gate {
			gate = "*"
			if failAbovePct > 0 && m.DeltaPct() > failAbovePct {
				gate = "FAIL"
			}
		}
		ew.Printf("  %-*s  %14.3f  %14.3f  %8.2f%%  %s\n", nameW, m.Name, m.A, m.B, m.DeltaPct(), gate)
	}
	if worst, ok := d.WorstGateRegression(); ok {
		ew.Printf("worst gated regression: %s %+.2f%%\n", worst.Name, worst.DeltaPct())
	} else {
		ew.Printf("no gated regressions\n")
	}
	return ew.Err
}

// Exceeds reports whether any gated metric regressed by more than pct
// (pct ≤ 0 disables the gate). NaN deltas never trip it.
func (d *DiffReport) Exceeds(pct float64) bool {
	if pct <= 0 {
		return false
	}
	for _, m := range d.Metrics {
		if m.Gate && !math.IsNaN(m.DeltaPct()) && m.DeltaPct() > pct {
			return true
		}
	}
	return false
}

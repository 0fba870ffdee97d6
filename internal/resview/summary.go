package resview

import (
	"sort"

	"bpart/internal/traceview"
)

// PhaseSummary aggregates every probed record of one name.
type PhaseSummary struct {
	Phase string
	// Count is the number of records (spans + laps) under the name.
	Count int
	// WallUS, Allocs, AllocBytes, GCCycles, GCPauseUS and GCCPUUS are the
	// summed deltas across those records.
	WallUS     float64
	Allocs     int64
	AllocBytes int64
	GCCycles   int64
	GCPauseUS  float64
	GCCPUUS    float64
	// MaxGoroutines is the highest goroutine count any record of the phase
	// observed at its end.
	MaxGoroutines int
}

// Summarize groups the probed records of tr (what traceview.Read returned
// for a -resources file) by name and sums their deltas, sorted by total
// wall time descending (name ascending on ties), so the heaviest phases
// lead the report deterministically. Records without res_* attrs are
// skipped, so a plain trace summarizes to nothing; a malformed res_* attr
// is an error.
func Summarize(tr *traceview.Trace) ([]PhaseSummary, error) {
	byName := map[string]*PhaseSummary{}
	for i := range tr.Records {
		r := &tr.Records[i]
		u, err := decode(r)
		if err != nil {
			return nil, err
		}
		if u == nil {
			continue
		}
		s, ok := byName[r.Name]
		if !ok {
			s = &PhaseSummary{Phase: r.Name}
			byName[r.Name] = s
		}
		s.Count++
		s.WallUS += u["res_wall_us"]
		s.Allocs += int64(u["res_allocs"])
		s.AllocBytes += int64(u["res_alloc_bytes"])
		s.GCCycles += int64(u["res_gc_cycles"])
		s.GCPauseUS += u["res_gc_pause_us"]
		s.GCCPUUS += u["res_gc_cpu_us"]
		if g := int(u["res_goroutines"]); g > s.MaxGoroutines {
			s.MaxGoroutines = g
		}
	}
	out := make([]PhaseSummary, 0, len(byName))
	for _, s := range byName {
		out = append(out, *s)
	}
	// Names are unique, so this order is total and the map's is immaterial.
	sort.Slice(out, func(i, j int) bool {
		if out[i].WallUS != out[j].WallUS {
			return out[i].WallUS > out[j].WallUS
		}
		return out[i].Phase < out[j].Phase
	})
	return out, nil
}

// ScalingPoint is one (workers → wall time) measurement of a scaling
// curve, with the derived speedup over the 1-worker point and the parallel
// efficiency (speedup/workers; 1.0 = ideal linear scaling).
type ScalingPoint struct {
	Workers    int
	WallUS     float64
	Speedup    float64
	Efficiency float64
}

// ScalingCurve is one scheme's measured speedup curve.
type ScalingCurve struct {
	Scheme string
	Points []ScalingPoint
}

// Curves extracts the Parallel Speedup measurements of tr: spans named
// ScalingPhase with "scheme"/"workers" attrs, grouped by scheme (sorted by
// name) with points sorted by workers. A span's wall time is its own
// dur_us, so no res_* attr is read. Repeated measurements of the same
// width keep the fastest (the conventional best-of-N timing); speedup and
// efficiency are derived from the 1-worker point and left zero when it is
// absent.
func Curves(tr *traceview.Trace) []ScalingCurve {
	best := map[string]map[int]float64{} // scheme → workers → fastest dur_us
	for _, r := range tr.Spans(ScalingPhase) {
		scheme, hasScheme := r.Str("scheme")
		workers, hasWorkers := r.Int("workers")
		if !hasScheme || !hasWorkers || workers <= 0 {
			continue
		}
		if best[scheme] == nil {
			best[scheme] = map[int]float64{}
		}
		if w, ok := best[scheme][workers]; !ok || r.DurUS < w {
			best[scheme][workers] = r.DurUS
		}
	}
	var out []ScalingCurve
	for scheme, byWidth := range best {
		c := ScalingCurve{Scheme: scheme}
		for w, wall := range byWidth {
			pt := ScalingPoint{Workers: w, WallUS: wall}
			if base := byWidth[1]; base > 0 && wall > 0 {
				pt.Speedup = base / wall
				pt.Efficiency = pt.Speedup / float64(w)
			}
			c.Points = append(c.Points, pt)
		}
		sort.Slice(c.Points, func(i, j int) bool { return c.Points[i].Workers < c.Points[j].Workers })
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Scheme < out[j].Scheme })
	return out
}

package resview

import "sort"

// PhaseSummary aggregates every record of one phase name.
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

// Summarize groups records by phase name and sums their deltas, sorted by
// total wall time descending (name ascending on ties), so the heaviest
// phases lead the report deterministically.
func Summarize(records []Record) []PhaseSummary {
	byName := map[string]*PhaseSummary{}
	var names []string
	for i := range records {
		r := &records[i]
		s, ok := byName[r.Phase]
		if !ok {
			s = &PhaseSummary{Phase: r.Phase}
			byName[r.Phase] = s
			names = append(names, r.Phase)
		}
		s.Count++
		s.WallUS += r.WallUS
		s.Allocs += r.Allocs
		s.AllocBytes += r.AllocBytes
		s.GCCycles += r.GCCycles
		s.GCPauseUS += r.GCPauseUS
		s.GCCPUUS += r.GCCPUUS
		if r.Goroutines > s.MaxGoroutines {
			s.MaxGoroutines = r.Goroutines
		}
	}
	out := make([]PhaseSummary, 0, len(names))
	for _, n := range names {
		out = append(out, *byName[n])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WallUS != out[j].WallUS {
			return out[i].WallUS > out[j].WallUS
		}
		return out[i].Phase < out[j].Phase
	})
	return out
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

// Curves extracts the Parallel Speedup measurements: records with phase
// ScalingPhase and "scheme"/"workers" attrs, grouped by scheme (sorted by
// name) with points sorted by workers. Repeated measurements of the same
// width keep the fastest (the conventional best-of-N timing); speedup and
// efficiency are derived from the 1-worker point and left zero when it is
// absent.
func Curves(records []Record) []ScalingCurve {
	type key struct {
		scheme  string
		workers int
	}
	best := map[key]float64{}
	var schemes []string
	seen := map[string]bool{}
	for i := range records {
		r := &records[i]
		if r.Phase != ScalingPhase {
			continue
		}
		scheme, ok := r.Str("scheme")
		if !ok {
			continue
		}
		workers, ok := r.Int("workers")
		if !ok || workers <= 0 {
			continue
		}
		k := key{scheme, workers}
		if w, ok := best[k]; !ok || r.WallUS < w {
			best[k] = r.WallUS
		}
		if !seen[scheme] {
			seen[scheme] = true
			schemes = append(schemes, scheme)
		}
	}
	sort.Strings(schemes)
	var out []ScalingCurve
	for _, scheme := range schemes {
		var widths []int
		for k := range best {
			if k.scheme == scheme {
				widths = append(widths, k.workers)
			}
		}
		sort.Ints(widths)
		base := best[key{scheme, 1}]
		c := ScalingCurve{Scheme: scheme}
		for _, w := range widths {
			pt := ScalingPoint{Workers: w, WallUS: best[key{scheme, w}]}
			if base > 0 && pt.WallUS > 0 {
				pt.Speedup = base / pt.WallUS
				pt.Efficiency = pt.Speedup / float64(w)
			}
			c.Points = append(c.Points, pt)
		}
		out = append(out, c)
	}
	return out
}

package resview

import (
	"sort"

	"bpart/internal/traceview"
)

// PhaseSummary aggregates every record with res_* attrs of one name.
type PhaseSummary struct {
	Phase string
	// Count is the number of records (spans, and the laps of a log
	// recorded before laps were dropped) under the name.
	Count int
	// WallUS, Allocs, AllocBytes, GCCycles, GCPauseUS and GCCPUUS are the
	// summed deltas across those records.
	WallUS     float64
	Allocs     int64
	AllocBytes int64
	GCCycles   int64
	GCPauseUS  float64
	GCCPUUS    float64
}

// Summarize groups the records of tr that carry res_* attrs (the spans of
// what traceview.Read returned for a -trace file) by name and sums their
// deltas, sorted by total wall time descending (name ascending on ties),
// so the heaviest phases lead the report deterministically. A span's
// deltas include those of the spans nested in it, so the sums are
// inclusive: a parent's row counts its children's time and bytes again.
// Records without res_* attrs are skipped, so events and a trace recorded
// before spans carried resources summarize to nothing; a malformed res_*
// attr is an error, and one no view reads (res_goroutines, in logs written
// before it was dropped) is ignored.
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

package servestats

import (
	"fmt"
	"sort"

	"bpart/internal/telemetry"
)

// EndpointStats is one endpoint's cumulative latency digest over a log.
type EndpointStats struct {
	Endpoint string  `json:"endpoint"`
	Count    int64   `json:"count"`
	Errors   int64   `json:"errors"`
	P50      float64 `json:"p50_us"`
	P95      float64 `json:"p95_us"`
	P99      float64 `json:"p99_us"`
	P999     float64 `json:"p999_us"`
}

// PartStats is one part's latency digest over a log.
type PartStats struct {
	Part  int     `json:"part"`
	Count int64   `json:"count"`
	Share float64 `json:"share"` // fraction of routed requests
	P50   float64 `json:"p50_us"`
	P95   float64 `json:"p95_us"`
	P99   float64 `json:"p99_us"`
	P999  float64 `json:"p999_us"`
}

// VersionCount counts the responses answered by one assignment version.
type VersionCount struct {
	Version int   `json:"version"`
	Count   int64 `json:"count"`
}

// Report is the digest of a request log: per-endpoint and per-part
// percentiles plus the version census the hot-swap test leans on.
type Report struct {
	Total     int64           `json:"total"`
	Routed    int64           `json:"routed"` // records with part >= 0
	Truncated bool            `json:"truncated,omitempty"`
	Endpoints []EndpointStats `json:"endpoints"`
	Parts     []PartStats     `json:"parts"`
	Versions  []VersionCount  `json:"versions"`
}

// Summarize digests a log. Percentiles come from replaying latencies into
// telemetry.Histogram, so the report and the live /statz window agree on
// estimator semantics.
func Summarize(l *Log) *Report {
	rep := &Report{Total: int64(len(l.Records)), Truncated: l.Truncated}
	epHist := map[string]*telemetry.Histogram{}
	epErrs := map[string]int64{}
	partHist := map[int]*telemetry.Histogram{}
	versions := map[int]int64{}
	for _, r := range l.Records {
		h := epHist[r.Endpoint]
		if h == nil {
			h = &telemetry.Histogram{}
			epHist[r.Endpoint] = h
		}
		h.Observe(r.LatencyUS)
		if r.Status >= 400 {
			epErrs[r.Endpoint]++
		}
		if r.Part >= 0 {
			rep.Routed++
			ph := partHist[r.Part]
			if ph == nil {
				ph = &telemetry.Histogram{}
				partHist[r.Part] = ph
			}
			ph.Observe(r.LatencyUS)
		}
		versions[r.Version]++
	}
	for _, ep := range Endpoints {
		h := epHist[ep]
		if h == nil {
			continue
		}
		rep.Endpoints = append(rep.Endpoints, EndpointStats{
			Endpoint: ep,
			Count:    h.Count(),
			Errors:   epErrs[ep],
			P50:      h.Quantile(0.50),
			P95:      h.Quantile(0.95),
			P99:      h.Quantile(0.99),
			P999:     h.Quantile(0.999),
		})
	}
	parts := make([]int, 0, len(partHist))
	for p := range partHist {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	for _, p := range parts {
		h := partHist[p]
		rep.Parts = append(rep.Parts, PartStats{
			Part:  p,
			Count: h.Count(),
			Share: float64(h.Count()) / float64(rep.Routed),
			P50:   h.Quantile(0.50),
			P95:   h.Quantile(0.95),
			P99:   h.Quantile(0.99),
			P999:  h.Quantile(0.999),
		})
	}
	vs := make([]int, 0, len(versions))
	for v := range versions {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	for _, v := range vs {
		rep.Versions = append(rep.Versions, VersionCount{Version: v, Count: versions[v]})
	}
	return rep
}

// Attribution is one part's row in the tail-attribution report: the
// request load the part actually absorbed next to the share its size says
// it should absorb under uniform vertex popularity. Pressure > 1 means
// the part is hotter than its size predicts (skewed popularity or
// imbalance); combined with P99 it answers "is the tail coming from big
// parts or hot parts" — the serving-side face of the paper's 2D-balance
// argument.
type Attribution struct {
	Part     int     `json:"part"`
	Requests int64   `json:"requests"`
	Share    float64 `json:"share"`    // Requests / total attributed
	SizeV    int     `json:"size_v"`   // vertices assigned to the part
	VShare   float64 `json:"v_share"`  // SizeV / total vertices
	Pressure float64 `json:"pressure"` // Share / VShare
	P50      float64 `json:"p50_us"`
	P99      float64 `json:"p99_us"`
}

// Attribute builds the per-part tail-attribution report for one assignment
// version, reconciling the log against the assignment exactly: every
// version-matching record with a routed part must agree with
// parts[vertex], per-part request counts must sum to the version's routed
// total, and each part's vertex share comes from the assignment (the same
// sizes partaudit's final record carries). Any disagreement is an error —
// attribution that does not reconcile is worse than none — and so is a
// version no record carries, which would attribute nothing.
func Attribute(l *Log, parts []int, k int, version int) ([]Attribution, error) {
	if k <= 0 {
		return nil, fmt.Errorf("servestats: attribute with k = %d", k)
	}
	sizeV := make([]int, k)
	for i, p := range parts {
		if p < 0 || p >= k {
			return nil, fmt.Errorf("servestats: assignment vertex %d in part %d, want [0,%d)", i, p, k)
		}
		sizeV[p]++
	}
	counts := make([]int64, k)
	hists := make([]*telemetry.Histogram, k)
	for i := range hists {
		hists[i] = &telemetry.Histogram{}
	}
	var total int64
	held := false
	for _, r := range l.Records {
		if r.Version != version {
			continue
		}
		held = true
		if r.Part < 0 {
			continue
		}
		if r.Part >= k {
			return nil, fmt.Errorf("servestats: record seq %d routed to part %d, assignment has k=%d", r.Seq, r.Part, k)
		}
		if r.Vertex < 0 || r.Vertex >= int64(len(parts)) {
			return nil, fmt.Errorf("servestats: record seq %d vertex %d outside assignment (%d vertices)", r.Seq, r.Vertex, len(parts))
		}
		if want := parts[r.Vertex]; r.Part != want {
			return nil, fmt.Errorf("servestats: record seq %d routed vertex %d to part %d, assignment says %d", r.Seq, r.Vertex, r.Part, want)
		}
		counts[r.Part]++
		hists[r.Part].Observe(r.LatencyUS)
		total++
	}
	if !held {
		var vs []int
		for _, v := range Summarize(l).Versions {
			vs = append(vs, v.Version)
		}
		return nil, fmt.Errorf("servestats: no record carries assignment version %d; the log holds versions %v", version, vs)
	}
	var sum int64
	for _, c := range counts {
		sum += c
	}
	if sum != total {
		// Unreachable by construction, but the reconciliation claim is the
		// report's contract, so check it rather than assume it.
		return nil, fmt.Errorf("servestats: per-part counts sum to %d, version total is %d", sum, total)
	}
	out := make([]Attribution, k)
	for p := 0; p < k; p++ {
		a := Attribution{
			Part:     p,
			Requests: counts[p],
			SizeV:    sizeV[p],
			VShare:   float64(sizeV[p]) / float64(len(parts)),
		}
		if total > 0 {
			a.Share = float64(counts[p]) / float64(total)
		}
		if a.VShare > 0 {
			a.Pressure = a.Share / a.VShare
		}
		a.P50 = hists[p].Quantile(0.50)
		a.P99 = hists[p].Quantile(0.99)
		out[p] = a
	}
	return out, nil
}

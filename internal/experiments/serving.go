package experiments

import (
	"bytes"
	"fmt"

	"bpart/internal/gen"
	"bpart/internal/servestats"
)

// The canonical serving workload: a fixed seeded Zipf request stream
// (lookup-heavy with k-hop and walk traffic mixed in) replayed in-process
// through the full HTTP surface per scheme. The stream is identical across
// runs and schemes, so every column is regression-diffable; the request
// latencies stay in the request log, which the artifact does not keep.
const (
	benchServingSeed     = 1
	benchServingRequests = 1200
	benchServingZipf     = 1.1
)

// BenchServingEndpoint is one endpoint's request count in a serving cell.
type BenchServingEndpoint struct {
	Endpoint string `json:"endpoint"`
	Requests int64  `json:"requests"`
}

// BenchServing is one (graph, scheme, k) cell of the artifact's serving
// section: the canonical Zipf stream served by that scheme's assignment,
// with per-endpoint request counts and the routing-skew columns that tie
// serving pressure back to partition balance. Every field derives purely
// from the seeded stream and the assignment, so the cell is deterministic
// at a fixed scale.
type BenchServing struct {
	Graph    string `json:"graph"`
	Scheme   string `json:"scheme"`
	K        int    `json:"k"`
	Requests int64  `json:"requests"`
	// HotPart absorbed the largest request share (HotShare of routed
	// requests); MaxPressure is the worst part's request-share over
	// vertex-share ratio (1.0 = load exactly proportional to size).
	HotPart     int                    `json:"hot_part"`
	HotShare    float64                `json:"hot_share"`
	MaxPressure float64                `json:"max_pressure"`
	Endpoints   []BenchServingEndpoint `json:"endpoints"`
}

// collectServing fills the serving section: every scheme serves the same
// seeded request stream through servestats' in-process player, and the
// resulting request log is digested with the exact same reader and
// attribution path `tracestat serve` uses on a live bpartd's -reqlog.
func (a *BenchArtifact) collectServing(d gen.Dataset, opt Options) error {
	g, err := dataset(d, opt)
	if err != nil {
		return err
	}
	reqs, err := servestats.Workload{
		Seed:     benchServingSeed,
		Vertices: g.NumVertices(),
		Requests: benchServingRequests,
		ZipfS:    benchServingZipf,
		LookupW:  2, KHopW: 1, WalkW: 1,
	}.Generate()
	if err != nil {
		return fmt.Errorf("bench artifact: serving workload: %w", err)
	}
	for _, scheme := range allSchemes {
		parts, err := assignment(d, opt, scheme, benchPartitionK)
		if err != nil {
			return fmt.Errorf("bench artifact: %w", err)
		}
		b, err := servestats.NewBackend(g, parts, benchPartitionK)
		if err != nil {
			return fmt.Errorf("bench artifact: %s serving backend: %w", scheme, err)
		}
		var buf bytes.Buffer
		rec := servestats.NewRecorder(benchPartitionK, &buf, nil)
		srv := &servestats.Server{B: b, R: rec}
		if err := srv.Play(reqs); err != nil {
			return fmt.Errorf("bench artifact: %s: %w", scheme, err)
		}
		if err := rec.Close(); err != nil {
			return fmt.Errorf("bench artifact: %s: %w", scheme, err)
		}
		l, err := servestats.Read(&buf)
		if err != nil {
			return fmt.Errorf("bench artifact: %s serving log: %w", scheme, err)
		}
		rep := servestats.Summarize(l)
		attrib, err := servestats.Attribute(l, parts, benchPartitionK, 1)
		if err != nil {
			return fmt.Errorf("bench artifact: %s serving attribution: %w", scheme, err)
		}
		cell := BenchServing{
			Graph:    string(d),
			Scheme:   scheme,
			K:        benchPartitionK,
			Requests: rep.Total,
			HotPart:  -1,
		}
		for _, at := range attrib {
			if at.Share > cell.HotShare {
				cell.HotPart, cell.HotShare = at.Part, at.Share
			}
			if at.Pressure > cell.MaxPressure {
				cell.MaxPressure = at.Pressure
			}
		}
		for _, e := range rep.Endpoints {
			cell.Endpoints = append(cell.Endpoints, BenchServingEndpoint{
				Endpoint: e.Endpoint,
				Requests: e.Count,
			})
		}
		a.Serving = append(a.Serving, cell)
	}
	return nil
}

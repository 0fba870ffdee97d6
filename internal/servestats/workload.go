package servestats

import (
	"fmt"

	"bpart/internal/graph"
	"bpart/internal/xrand"
)

// Endpoint names, shared by the server, the recorder, the workload
// generator and the reports. They are the request-log vocabulary, so keep
// them stable.
const (
	EndpointLookup = "lookup"
	EndpointKHop   = "khop"
	EndpointWalk   = "walk"
)

// Endpoints lists the serving endpoints in report order.
var Endpoints = []string{EndpointLookup, EndpointKHop, EndpointWalk}

// The largest hops a khop request and steps a walk request may ask for;
// both must be at least 1. The handlers answer a request outside them with
// 400, and Normalize refuses a workload that would generate one.
const (
	maxHops  = 8
	maxSteps = 1 << 20
)

// Request is one generated serving request. The stream a Workload expands
// to is a pure function of its config, so the same seed yields the same
// vertices, kinds and (given the same assignment) the same per-part
// routing — that is the determinism CI pins.
type Request struct {
	Endpoint string
	Vertex   graph.VertexID
	Hops     int // khop only
	Steps    int // walk only
	Alpha    float64
	Seed     uint64 // walk only: per-request walk seed
}

// Workload describes a reproducible request stream: n requests over a
// vertex universe, vertex popularity Zipf-distributed (xrand.PowerLawWeights
// over a seeded vertex permutation, so vertex 0 is not always the head),
// request kinds drawn from the Mix weights.
type Workload struct {
	Seed     uint64
	Vertices int     // vertex universe size (graph order)
	Requests int     // number of requests to generate
	ZipfS    float64 // popularity skew exponent (0 = uniform)
	Hops     int     // hops for khop requests (default 2)
	Steps    int     // steps for walk requests (default 16)
	Alpha    float64 // walk restart probability
	// Mix weights for lookup/khop/walk; all zero means lookups only.
	LookupW, KHopW, WalkW float64
}

// Normalize fills defaults and validates.
func (w *Workload) Normalize() error {
	if w.Vertices <= 0 {
		return fmt.Errorf("servestats: workload over %d vertices", w.Vertices)
	}
	if w.Requests < 0 {
		return fmt.Errorf("servestats: %d requests", w.Requests)
	}
	if w.ZipfS < 0 {
		return fmt.Errorf("servestats: zipf s = %g, want >= 0", w.ZipfS)
	}
	if w.Hops == 0 {
		w.Hops = 2
	}
	if w.Hops < 1 || w.Hops > maxHops {
		return fmt.Errorf("servestats: hops = %d, want [1,%d]", w.Hops, maxHops)
	}
	if w.Steps == 0 {
		w.Steps = 16
	}
	if w.Steps < 1 || w.Steps > maxSteps {
		return fmt.Errorf("servestats: steps = %d, want [1,%d]", w.Steps, maxSteps)
	}
	if w.Alpha < 0 || w.Alpha >= 1 {
		return fmt.Errorf("servestats: alpha = %g, want [0,1)", w.Alpha)
	}
	if w.LookupW < 0 || w.KHopW < 0 || w.WalkW < 0 {
		return fmt.Errorf("servestats: negative mix weight")
	}
	if w.LookupW == 0 && w.KHopW == 0 && w.WalkW == 0 {
		w.LookupW = 1
	}
	return nil
}

// Generate expands the workload into its request stream. Two calls with
// the same config return identical streams.
func (w Workload) Generate() ([]Request, error) {
	if err := w.Normalize(); err != nil {
		return nil, err
	}
	rng := xrand.New(w.Seed)
	// Popularity: rank-r weight (r+shift)^-s over a seeded permutation, so
	// the hot set is a reproducible but arbitrary subset of the vertex IDs.
	perm := rng.Perm(w.Vertices)
	var vertexAlias *xrand.Alias
	if w.ZipfS > 0 {
		// Shift 1 gives the classic Zipf profile (r+1)^-s; shift 0 would
		// make rank 0's weight infinite and collapse the whole stream onto
		// one vertex.
		vertexAlias = xrand.NewAlias(xrand.PowerLawWeights(w.Vertices, w.ZipfS, 1))
	}
	kindAlias := xrand.NewAlias([]float64{w.LookupW, w.KHopW, w.WalkW})
	reqs := make([]Request, w.Requests)
	for i := range reqs {
		var rank int
		if vertexAlias != nil {
			rank = vertexAlias.Sample(rng)
		} else {
			rank = rng.Intn(w.Vertices)
		}
		r := Request{Vertex: graph.VertexID(perm[rank])}
		switch kindAlias.Sample(rng) {
		case 0:
			r.Endpoint = EndpointLookup
		case 1:
			r.Endpoint = EndpointKHop
			r.Hops = w.Hops
		default:
			r.Endpoint = EndpointWalk
			r.Steps = w.Steps
			r.Alpha = w.Alpha
			r.Seed = rng.Uint64()
		}
		reqs[i] = r
	}
	return reqs, nil
}

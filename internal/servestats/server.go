package servestats

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"bpart/internal/gio"
	"bpart/internal/graph"
)

// Server wires a Backend and an optional Recorder into HTTP handlers —
// the serving surface cmd/bpartd exposes and the in-process surface the
// tests and cmd/bench drive through httptest. Handlers grab the assignment
// view exactly once per request and answer entirely against it, so every
// response carries exactly one version even mid-swap.
type Server struct {
	B *Backend
	R *Recorder // nil disables per-request stats
	// Repartition, when set, backs POST /v1/swapz?scheme=S&k=N: it computes
	// a fresh assignment (typically by running a partitioning scheme over
	// the served graph) which the server then atomically publishes. The
	// callback runs outside any lock; only the flip is atomic.
	Repartition func(scheme string, k int) ([]int, error)
}

// Register mounts the serving endpoints on mux:
//
//	GET  /v1/lookup?v=ID                       placement lookup
//	GET  /v1/khop?v=ID&hops=H&limit=L          k-hop neighborhood size
//	GET  /v1/walk?v=ID&steps=S&alpha=A&seed=X  seeded random walk / PPR
//	POST /v1/swapz                             assignment hot-swap
//	GET  /v1/statz                             recorder window + totals
//
// Swap accepts either an uploaded assignment in the gio text format (the
// request body) or, with a Repartition callback installed,
// ?scheme=S&k=N to recompute in-process.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("/v1/lookup", s.handleLookup)
	mux.HandleFunc("/v1/khop", s.handleKHop)
	mux.HandleFunc("/v1/walk", s.handleWalk)
	mux.HandleFunc("/v1/swapz", s.handleSwap)
	mux.HandleFunc("/v1/statz", s.handleStatz)
}

// Mux returns a fresh mux with the serving endpoints mounted.
func (s *Server) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	s.Register(mux)
	return mux
}

// LookupResponse is the /v1/lookup reply.
type LookupResponse struct {
	Vertex  int64 `json:"vertex"`
	Part    int   `json:"part"`
	Version int   `json:"version"`
}

// KHopResponse is the /v1/khop reply. Sample is the first vertices
// discovered, in deterministic CSR BFS order.
type KHopResponse struct {
	Vertex  int64   `json:"vertex"`
	Hops    int     `json:"hops"`
	Count   int     `json:"count"`
	Sample  []int64 `json:"sample,omitempty"`
	Part    int     `json:"part"`
	Version int     `json:"version"`
}

// WalkResponse is the /v1/walk reply.
type WalkResponse struct {
	Vertex  int64  `json:"vertex"`
	Steps   int    `json:"steps"`
	Seed    uint64 `json:"seed"`
	End     int64  `json:"end"`
	EndPart int    `json:"end_part"`
	Visited int    `json:"visited"`
	Part    int    `json:"part"`
	Version int    `json:"version"`
}

// SwapResponse is the /v1/swapz reply.
type SwapResponse struct {
	Version int `json:"version"`
	K       int `json:"k"`
}

// StatzResponse is the /v1/statz reply: the window since the last statz
// call plus running totals.
type StatzResponse struct {
	Version  int              `json:"version"`
	K        int              `json:"k"`
	Inflight int64            `json:"inflight"`
	Window   []EndpointWindow `json:"window"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// vertexParam parses ?v= against the backend's vertex range. Like the other
// helpers it takes the parsed query, which each handler builds once:
// r.URL.Query() is a full url.ParseQuery with a fresh map per call.
func (s *Server) vertexParam(q url.Values) (graph.VertexID, error) {
	raw := q.Get("v")
	if raw == "" {
		return 0, fmt.Errorf("missing vertex parameter v")
	}
	id, err := strconv.ParseUint(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad vertex %q: %v", raw, err)
	}
	if int(id) >= s.B.Graph().NumVertices() {
		return 0, fmt.Errorf("vertex %d out of range (graph has %d)", id, s.B.Graph().NumVertices())
	}
	return graph.VertexID(id), nil
}

func intParam(q url.Values, name string, def, min, max int) (int, error) {
	raw := q.Get(name)
	if raw == "" {
		return def, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q: %v", name, raw, err)
	}
	if n < min || n > max {
		return 0, fmt.Errorf("%s = %d, want [%d,%d]", name, n, min, max)
	}
	return n, nil
}

func (s *Server) handleLookup(w http.ResponseWriter, r *http.Request) {
	start := s.R.Start()
	view := s.B.View()
	q := r.URL.Query()
	v, err := s.vertexParam(q)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		s.R.End(start, EndpointLookup, badVertex(q), -1, view.Version(), http.StatusBadRequest)
		return
	}
	part := view.Part(v)
	writeJSON(w, http.StatusOK, LookupResponse{Vertex: int64(v), Part: part, Version: view.Version()})
	s.R.End(start, EndpointLookup, v, part, view.Version(), http.StatusOK)
}

func (s *Server) handleKHop(w http.ResponseWriter, r *http.Request) {
	start := s.R.Start()
	view := s.B.View()
	q := r.URL.Query()
	v, err := s.vertexParam(q)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		s.R.End(start, EndpointKHop, badVertex(q), -1, view.Version(), http.StatusBadRequest)
		return
	}
	hops, err := intParam(q, "hops", 2, 1, maxHops)
	if err == nil {
		var limit int
		limit, err = intParam(q, "limit", 0, 0, 1024)
		if err == nil {
			count, sample := s.B.KHop(v, hops, limit)
			part := view.Part(v)
			resp := KHopResponse{Vertex: int64(v), Hops: hops, Count: count, Part: part, Version: view.Version()}
			resp.Sample = make([]int64, len(sample))
			for i, u := range sample {
				resp.Sample[i] = int64(u)
			}
			writeJSON(w, http.StatusOK, resp)
			s.R.End(start, EndpointKHop, v, part, view.Version(), http.StatusOK)
			return
		}
	}
	httpError(w, http.StatusBadRequest, "%v", err)
	s.R.End(start, EndpointKHop, v, -1, view.Version(), http.StatusBadRequest)
}

func (s *Server) handleWalk(w http.ResponseWriter, r *http.Request) {
	start := s.R.Start()
	view := s.B.View()
	q := r.URL.Query()
	v, err := s.vertexParam(q)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		s.R.End(start, EndpointWalk, badVertex(q), -1, view.Version(), http.StatusBadRequest)
		return
	}
	steps, err := intParam(q, "steps", 16, 1, maxSteps)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		s.R.End(start, EndpointWalk, v, -1, view.Version(), http.StatusBadRequest)
		return
	}
	alpha := 0.0
	if raw := q.Get("alpha"); raw != "" {
		alpha, err = strconv.ParseFloat(raw, 64)
		if err != nil || alpha < 0 || alpha >= 1 {
			httpError(w, http.StatusBadRequest, "bad alpha %q, want [0,1)", raw)
			s.R.End(start, EndpointWalk, v, -1, view.Version(), http.StatusBadRequest)
			return
		}
	}
	var seed uint64
	if raw := q.Get("seed"); raw != "" {
		seed, err = strconv.ParseUint(raw, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, "bad seed %q: %v", raw, err)
			s.R.End(start, EndpointWalk, v, -1, view.Version(), http.StatusBadRequest)
			return
		}
	}
	end, visited := s.B.Walk(v, steps, alpha, seed)
	part := view.Part(v)
	writeJSON(w, http.StatusOK, WalkResponse{
		Vertex: int64(v), Steps: steps, Seed: seed,
		End: int64(end), EndPart: view.Part(end), Visited: visited,
		Part: part, Version: view.Version(),
	})
	s.R.End(start, EndpointWalk, v, part, view.Version(), http.StatusOK)
}

func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "swap is POST-only")
		return
	}
	q := r.URL.Query()
	var parts []int
	var k int
	var err error
	if scheme := q.Get("scheme"); scheme != "" {
		if s.Repartition == nil {
			httpError(w, http.StatusBadRequest, "no repartitioner installed; upload an assignment body instead")
			return
		}
		k, err = intParam(q, "k", s.B.View().K(), 1, 1<<20)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		parts, err = s.Repartition(scheme, k)
		if err != nil {
			httpError(w, http.StatusUnprocessableEntity, "repartition: %v", err)
			return
		}
	} else {
		// Swap accepts only an assignment covering the served graph, so
		// that graph bounds the upload: one line per vertex of at most 20
		// characters (any int64) and a newline, doubled to leave room for
		// the header, CRLF endings and comment lines.
		body := http.MaxBytesReader(w, r.Body, 2*21*int64(s.B.Graph().NumVertices()+1))
		parts, k, err = gio.ReadAssignment(body)
		if err != nil {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			httpError(w, status, "assignment body: %v", err)
			return
		}
	}
	view, err := s.B.Swap(parts, k)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, SwapResponse{Version: view.Version(), K: view.K()})
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	view := s.B.View()
	writeJSON(w, http.StatusOK, StatzResponse{
		Version:  view.Version(),
		K:        view.K(),
		Inflight: s.R.Inflight(),
		Window:   s.R.WindowSnapshot(),
	})
}

// badVertex best-effort parses the vertex parameter for error-path
// logging; -1 when absent or unparseable.
func badVertex(q url.Values) graph.VertexID {
	if id, err := strconv.ParseUint(q.Get("v"), 10, 32); err == nil {
		return graph.VertexID(id)
	}
	return graph.VertexID(^uint32(0))
}

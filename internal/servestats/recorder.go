package servestats

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"bpart/internal/graph"
	"bpart/internal/recordlog"
	"bpart/internal/telemetry"
)

// SchemaVersion is the request-record schema version. Bump it on any
// incompatible field change; the reader rejects versions it does not
// handle. The schema is documented in EXPERIMENTS.md.
const SchemaVersion = 1

// Registry metric names the recorder maintains next to its own windowed
// histograms. The per-endpoint windows are held as raw telemetry.Histogram
// values on the recorder itself (their identity is positional, not a minted
// metric name), so the registry surface stays a fixed set of compile-time
// names.
const (
	metricServingRequestsTotal = "serving_requests_total"
	metricServingErrorsTotal   = "serving_errors_total"
	metricServingInflight      = "serving_inflight"
	metricServingLatencyUS     = "serving_latency_us"
)

// Recorder captures per-request serving observations: windowed
// per-endpoint latency histograms (the /v1/statz view), registry counters,
// an in-flight gauge, and (when given a sink) one versioned JSONL
// `request` record per request, written as a whole line so a crashed
// server leaves at worst a torn final line — exactly what Read tolerates.
// The request log, digested by Summarize, is the cumulative view. Write and
// flush errors are sticky and surfaced by Flush/Close.
//
// A nil *Recorder is the disabled path: every method is a no-op, Start
// performs no clock read, and the serving hot path allocates no
// per-request stats records. Recording being on or off never changes
// responses — the recorder only observes.
type Recorder struct {
	mu  sync.Mutex
	log *recordlog.Writer // nil without a sink
	seq int64

	inflight atomic.Int64

	// windows is keyed by endpoint name.
	windows map[string]*telemetry.Histogram

	reg *telemetry.Registry
}

// NewRecorder returns a recorder for a k-part view. logSink may be nil (no
// request log); reg may be nil (no registry metrics). The caller owns
// logSink; call Close (or Flush) before reading the log back. k sizes
// nothing since the recorder keeps no per-part state (the request log
// carries each request's part); dropping it waits for a change to the
// benchmark module, which calls NewRecorder.
func NewRecorder(k int, logSink io.Writer, reg *telemetry.Registry) *Recorder {
	r := &Recorder{
		windows: make(map[string]*telemetry.Histogram, len(Endpoints)),
		reg:     reg,
	}
	for _, ep := range Endpoints {
		r.windows[ep] = &telemetry.Histogram{}
	}
	if logSink != nil {
		// Flush per request, so a crashed server keeps every answered
		// request's record.
		r.log = recordlog.NewWriter(logSink, 1)
	}
	return r
}

// Start marks a request's arrival: it bumps the in-flight gauge and
// returns the wall-clock start. On a nil recorder it returns the zero time
// without touching the clock.
func (r *Recorder) Start() time.Time {
	if r == nil {
		return time.Time{}
	}
	n := r.inflight.Add(1)
	r.reg.Gauge(metricServingInflight).Set(float64(n))
	return time.Now()
}

// End records one completed request: latency into the endpoint's windowed
// histogram and the registry, counters, and (when a sink is attached) one
// JSONL record. part may be -1 when the
// request never resolved to a part (bad vertex); version likewise 0 when
// no view was consulted.
func (r *Recorder) End(start time.Time, endpoint string, vertex graph.VertexID, part, version, status int) {
	if r == nil {
		return
	}
	us := float64(time.Since(start)) / float64(time.Microsecond)
	n := r.inflight.Add(-1)
	r.reg.Gauge(metricServingInflight).Set(float64(n))
	r.reg.Counter(metricServingRequestsTotal).Inc()
	if status >= 400 {
		r.reg.Counter(metricServingErrorsTotal).Inc()
	}
	r.reg.Histogram(metricServingLatencyUS).Observe(us)

	r.mu.Lock()
	if h := r.windows[endpoint]; h != nil {
		h.Observe(us)
	}
	if r.log != nil {
		// Written under r.mu, so seq is monotone in file order.
		r.seq++
		line, err := json.Marshal(jsonRecord{
			V:         SchemaVersion,
			Type:      "request",
			Seq:       r.seq,
			Endpoint:  endpoint,
			Vertex:    int64(vertex),
			Part:      part,
			Version:   version,
			Status:    status,
			LatencyUS: us,
		})
		if err != nil {
			r.log.Fail(err)
		} else {
			r.log.Line(line)
		}
	}
	r.mu.Unlock()
}

// Inflight returns the number of requests currently between Start and End.
func (r *Recorder) Inflight() int64 {
	if r == nil {
		return 0
	}
	return r.inflight.Load()
}

// EndpointWindow is one endpoint's digest over the current window.
type EndpointWindow struct {
	Endpoint string  `json:"endpoint"`
	Count    int64   `json:"count"`
	P50      float64 `json:"p50_us"`
	P95      float64 `json:"p95_us"`
	P99      float64 `json:"p99_us"`
	P999     float64 `json:"p999_us"`
}

// WindowSnapshot digests and resets the windowed histograms: each call
// covers the traffic since the previous call, in Endpoints order.
func (r *Recorder) WindowSnapshot() []EndpointWindow {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]EndpointWindow, 0, len(Endpoints))
	for _, ep := range Endpoints {
		h := r.windows[ep]
		out = append(out, EndpointWindow{
			Endpoint: ep,
			Count:    h.Count(),
			P50:      h.Quantile(0.50),
			P95:      h.Quantile(0.95),
			P99:      h.Quantile(0.99),
			P999:     h.Quantile(0.999),
		})
		r.windows[ep] = &telemetry.Histogram{}
	}
	return out
}

// Flush flushes the request log and reports the first write error, if any.
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	if r.log == nil {
		return nil
	}
	if err := r.log.Flush(); err != nil {
		return fmt.Errorf("servestats: request log: %w", err)
	}
	return nil
}

// Close flushes and surfaces any sticky write error. The underlying sink
// is the caller's to close.
func (r *Recorder) Close() error { return r.Flush() }

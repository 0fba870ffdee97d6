package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. All methods are safe for
// concurrent use and nil-safe: a nil *Counter (from a nil *Registry) is a
// no-op, so instrumented code never branches on "is telemetry on".
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value float metric. Like Counter it is concurrency- and
// nil-safe.
type Gauge struct {
	bits atomic.Uint64
}

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last value set (0 for a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry is a named collection of counters and gauges. Metric names
// should be Prometheus-style snake_case ("stream_placed_total"); invalid
// characters are sanitized at export time, not at update time. It is also
// a Tracer that folds a trace into metrics (fold.go).
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use. A nil
// registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// Snapshot returns every metric's current value keyed by name — the
// expvar-compatible view: publish it with
//
//	expvar.Publish("bpart", expvar.Func(func() any { return reg.Snapshot() }))
//
// Counters appear as int64, gauges as float64, histograms as their
// HistogramSummary digest.
func (r *Registry) Snapshot() map[string]any {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]any, len(r.counters)+len(r.gauges)+len(r.histograms))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.histograms {
		s := h.Summary()
		s.Name = name
		out[name] = s
	}
	return out
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format, sorted by metric name:
//
//	# TYPE stream_placed_total counter
//	stream_placed_total 12345
//
// Histograms use the standard cumulative-bucket exposition (empty buckets
// elided; the cumulative counts still parse):
//
//	# TYPE superstep_time_us histogram
//	superstep_time_us_bucket{le="256"} 7
//	superstep_time_us_bucket{le="+Inf"} 9
//	superstep_time_us_sum 1893.2
//	superstep_time_us_count 9
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	type metric struct {
		name, block string
	}
	r.mu.RLock()
	ms := make([]metric, 0, len(r.counters)+len(r.gauges)+len(r.histograms))
	for name, c := range r.counters {
		n := sanitizeMetricName(name)
		ms = append(ms, metric{n, fmt.Sprintf("# TYPE %s counter\n%s %d\n", n, n, c.Value())})
	}
	for name, g := range r.gauges {
		n := sanitizeMetricName(name)
		ms = append(ms, metric{n, fmt.Sprintf("# TYPE %s gauge\n%s %g\n", n, n, g.Value())})
	}
	for name, h := range r.histograms {
		n := sanitizeMetricName(name)
		var b strings.Builder
		fmt.Fprintf(&b, "# TYPE %s histogram\n", n)
		uppers, counts := h.cumulative()
		var total int64
		for i, ub := range uppers {
			total = counts[i]
			if math.IsInf(ub, 1) {
				continue // folded into the +Inf line below
			}
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", n, fmt.Sprintf("%g", ub), counts[i])
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", n, total)
		fmt.Fprintf(&b, "%s_sum %g\n%s_count %d\n", n, h.Sum(), n, h.Count())
		ms = append(ms, metric{n, b.String()})
	}
	r.mu.RUnlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	for _, m := range ms {
		if _, err := io.WriteString(w, m.block); err != nil {
			return err
		}
	}
	return nil
}

// sanitizeMetricName maps a metric name onto the Prometheus alphabet
// [a-zA-Z0-9_:], replacing every other rune with '_'.
func sanitizeMetricName(name string) string {
	ok := func(i int, r rune) bool {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			return true
		case r >= '0' && r <= '9':
			return i > 0
		}
		return false
	}
	clean := true
	for i, r := range name {
		if !ok(i, r) {
			clean = false
			break
		}
	}
	if clean && name != "" {
		return name
	}
	var b strings.Builder
	for i, r := range name {
		if ok(i, r) {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

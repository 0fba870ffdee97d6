package experiments

import "bpart/internal/telemetry"

// benchHists lists the BENCH artifact's histograms in its (name) order,
// each with the record and attribute it is read from.
var benchHists = [...]struct{ name, record, key string }{
	{"cluster_machine_compute_us", "cluster.superstep", "compute"},
	{"cluster_machine_message_batch", "cluster.superstep", "messages"},
	{"cluster_superstep_time_us", "cluster.superstep", "time_us"},
	{"comm_pair_batch_messages", "cluster.superstep", "pairs"}, // non-zero cells only
	{"walk_run_sim_time_us", "walk.run", "sim_time_us"},
}

// HistogramSink is the tracer sink behind the BENCH artifact's histograms
// section: teed into Options.Tracer, it observes the benchHists attributes
// of every cluster.superstep event and every ended walk.run span. The zero
// value is ready; a nil sink is disabled, so Tee drops it.
type HistogramSink struct {
	hists [len(benchHists)]telemetry.Histogram
}

// Summaries digests every histogram that holds a sample, in name order.
func (s *HistogramSink) Summaries() []telemetry.HistogramSummary {
	out := []telemetry.HistogramSummary{}
	for i := range s.hists {
		if s.hists[i].Count() > 0 {
			sum := s.hists[i].Summary()
			sum.Name = benchHists[i].name
			out = append(out, sum)
		}
	}
	return out
}

// Enabled, Span and Event implement telemetry.Tracer.
func (s *HistogramSink) Enabled() bool { return s != nil }
func (s *HistogramSink) Span(name string, _ ...telemetry.Attr) telemetry.Span {
	return sinkSpan(func(attrs []telemetry.Attr) { s.observe(name, attrs) })
}
func (s *HistogramSink) Event(name string, attrs ...telemetry.Attr) { s.observe(name, attrs) }

// sinkSpan observes its End attributes.
type sinkSpan func([]telemetry.Attr)

func (sinkSpan) Annotate(...telemetry.Attr)    {}
func (f sinkSpan) End(attrs ...telemetry.Attr) { f(attrs) }

func (s *HistogramSink) observe(record string, attrs []telemetry.Attr) {
	for i, bh := range benchHists {
		for _, a := range attrs {
			if bh.record != record || bh.key != a.Key {
				continue
			}
			h := &s.hists[i]
			switch v := a.Value().(type) {
			case float64:
				h.Observe(v)
			case []float64:
				for _, x := range v {
					h.Observe(x)
				}
			case []int64:
				for _, n := range v {
					h.Observe(float64(n))
				}
			case [][]int64:
				for _, row := range v {
					for _, n := range row {
						if n != 0 {
							h.Observe(float64(n))
						}
					}
				}
			}
		}
	}
}

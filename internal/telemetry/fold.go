package telemetry

import "strings"

// A Registry is a tracer sink. Teed beside a trace (Tee(tr, reg)), it folds
// every record by one rule, so instrumented code never names a metric: a
// span "a.b" that ends adds one to a_b_total, sums each int or bool End
// attribute into a_b_<key>_total and sets each float End attribute as the
// gauge a_b_<key>; an event "a.b" adds one to a_b_total. Start and Annotate
// attributes are parameters (source, k, max_iters), not outcomes; neither
// they, strings, Any payloads nor event attributes are folded.

// Enabled, Span and Event implement Tracer; a nil registry is disabled, so
// Tee drops it.
func (r *Registry) Enabled() bool { return r != nil }

func (r *Registry) Span(name string, _ ...Attr) Span {
	if r == nil {
		return nopSpan{}
	}
	return foldSpan{r, strings.ReplaceAll(name, ".", "_")}
}

func (r *Registry) Event(name string, _ ...Attr) {
	if r != nil {
		r.Counter(strings.ReplaceAll(name, ".", "_") + "_total").Inc()
	}
}

// foldSpan folds its End attributes into the registry under prefix a_b.
type foldSpan struct {
	r      *Registry
	prefix string
}

func (foldSpan) Annotate(...Attr) {}

func (s foldSpan) End(attrs ...Attr) {
	s.r.Counter(s.prefix + "_total").Inc()
	for _, a := range attrs {
		switch a.kind {
		case kindInt, kindBool:
			s.r.Counter(s.prefix + "_" + a.Key + "_total").Add(a.num)
		case kindFloat:
			s.r.Gauge(s.prefix + "_" + a.Key).Set(a.flt)
		}
	}
}

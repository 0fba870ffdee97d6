package telemetry

// Tee returns a tracer that forwards every Span and Event to each of
// tracers in argument order, so one hook site feeds several sinks (the
// JSONL trace behind -trace and the registry behind -metrics). nil
// and disabled tracers are dropped up front: zero survivors is the no-op
// tracer, one is that tracer itself, so the unobserved path stays
// allocation-free.
func Tee(tracers ...Tracer) Tracer {
	var live tee
	for _, t := range tracers {
		if t != nil && t.Enabled() {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return Nop()
	case 1:
		return live[0]
	}
	return live
}

type tee []Tracer

func (t tee) Enabled() bool { return true }

func (t tee) Span(name string, attrs ...Attr) Span {
	spans := make(teeSpan, len(t))
	for i, tr := range t {
		spans[i] = tr.Span(name, attrs...)
	}
	return spans
}

func (t tee) Event(name string, attrs ...Attr) {
	for _, tr := range t {
		tr.Event(name, attrs...)
	}
}

type teeSpan []Span

func (s teeSpan) Annotate(attrs ...Attr) {
	for _, sp := range s {
		sp.Annotate(attrs...)
	}
}

func (s teeSpan) End(attrs ...Attr) {
	for _, sp := range s {
		sp.End(attrs...)
	}
}

// With returns a tracer that adds attrs to every span's start attributes
// and to every event it forwards to tr, the way BPart labels the records of
// one layer's stream with the layer. A disabled tr is returned as it is, so
// the unobserved path stays allocation-free.
func With(tr Tracer, attrs ...Attr) Tracer {
	if tr == nil || !tr.Enabled() || len(attrs) == 0 {
		return Safe(tr)
	}
	return with{tr, append([]Attr(nil), attrs...)}
}

type with struct {
	tr    Tracer
	attrs []Attr
}

func (w with) Enabled() bool { return true }

func (w with) Span(name string, attrs ...Attr) Span {
	return w.tr.Span(name, append(attrs[:len(attrs):len(attrs)], w.attrs...)...)
}

func (w with) Event(name string, attrs ...Attr) {
	w.tr.Event(name, append(attrs[:len(attrs):len(attrs)], w.attrs...)...)
}

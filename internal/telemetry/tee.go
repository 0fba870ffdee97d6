package telemetry

// Tee returns a tracer that forwards every Span and Event to each of
// tracers in argument order, so one hook site feeds several sinks (the
// JSONL trace and the resource probe behind -trace and -resources). nil
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

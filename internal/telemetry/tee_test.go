package telemetry

import (
	"reflect"
	"testing"
)

// orderSink logs which sink saw which call, in call order, into one shared
// journal — the fan-out order is part of Tee's contract.
type orderSink struct {
	id      string
	journal *[]string
}

func (s orderSink) Enabled() bool { return true }
func (s orderSink) Span(name string, _ ...Attr) Span {
	*s.journal = append(*s.journal, s.id+":span:"+name)
	return orderSpan(s)
}
func (s orderSink) Event(name string, _ ...Attr) {
	*s.journal = append(*s.journal, s.id+":event:"+name)
}

type orderSpan orderSink

func (s orderSpan) Annotate(...Attr) { *s.journal = append(*s.journal, s.id+":annotate") }
func (s orderSpan) End(...Attr)      { *s.journal = append(*s.journal, s.id+":end") }

func TestTeeFanOutOrder(t *testing.T) {
	var journal []string
	tr := Tee(orderSink{"a", &journal}, nil, Nop(), orderSink{"b", &journal})
	if !tr.Enabled() {
		t.Fatal("tee of two enabled sinks reports disabled")
	}
	sp := tr.Span("phase")
	sp.Annotate()
	sp.End()
	tr.Event("tick")
	want := []string{
		"a:span:phase", "b:span:phase",
		"a:annotate", "b:annotate",
		"a:end", "b:end",
		"a:event:tick", "b:event:tick",
	}
	if !reflect.DeepEqual(journal, want) {
		t.Fatalf("fan-out order:\n got %v\nwant %v", journal, want)
	}
}

func TestTeeAttrsReachEverySink(t *testing.T) {
	a, b := NewMemory(), NewMemory()
	tr := Tee(a, b)
	sp := tr.Span("layer", Int("layer", 1))
	sp.Annotate(Int("pieces", 16))
	sp.End(Int("frozen", 3))
	tr.Event("superstep", Int("iteration", 7))
	for name, m := range map[string]*Memory{"first": a, "second": b} {
		recs := m.Records()
		if len(recs) != 2 || !recs[0].Span || recs[1].Span {
			t.Fatalf("%s sink: records %+v", name, recs)
		}
		for _, key := range []string{"layer", "pieces", "frozen"} {
			if recs[0].Attr(key) == nil {
				t.Fatalf("%s sink: span lost attr %q", name, key)
			}
		}
		if got := recs[1].Attr("iteration"); got != int64(7) {
			t.Fatalf("%s sink: event iteration = %v", name, got)
		}
	}
}

// Enabled is "any sink enabled"; with none the tee is the no-op tracer
// itself (zero allocations), and with one it is that sink — the unobserved
// and singly-observed paths pay nothing for the tee's existence.
func TestTeeDegenerateCases(t *testing.T) {
	for _, tr := range []Tracer{Tee(), Tee(nil), Tee(Nop(), nil, Nop())} {
		if tr != Nop() {
			t.Fatalf("tee of no live sinks is %T, want the no-op tracer", tr)
		}
	}
	none := Tee(nil, Nop())
	if none.Enabled() {
		t.Fatal("tee of disabled sinks reports Enabled")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		sp := none.Span("phase")
		sp.Annotate()
		sp.End()
		none.Event("event")
	})
	if allocs != 0 {
		t.Fatalf("empty tee allocates %.1f per span+event, want 0", allocs)
	}
	m := NewMemory()
	if Tee(Nop(), m, nil) != Tracer(m) {
		t.Fatal("tee of one live sink is not that sink")
	}
}

// With appends its attributes after the call's own, on span starts and
// events alike, and never writes into the caller's variadic array.
func TestWithAddsAttrs(t *testing.T) {
	if With(Nop(), Int("layer", 1)) != Nop() {
		t.Fatal("With over a disabled tracer is not that tracer")
	}
	m := NewMemory()
	tr := With(m, Int("layer", 2))
	own := []Attr{String("cause", "greedy"), Int("pos", 0)}
	tr.Event("audit.decision", own[:1]...)
	tr.Span("partition.stream", Int("k", 8)).End(Int("placed", 3))
	if own[1].Key != "pos" {
		t.Fatal("With wrote into the caller's attribute array")
	}
	recs := m.Records()
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	for i, want := range [][]string{{"cause", "layer"}, {"k", "layer", "placed"}} {
		var keys []string
		for _, a := range recs[i].Attrs {
			keys = append(keys, a.Key)
		}
		if !reflect.DeepEqual(keys, want) {
			t.Errorf("%s attrs %v, want %v", recs[i].Name, keys, want)
		}
	}
	if recs[0].Attr("layer") != int64(2) {
		t.Fatalf("layer = %v, want 2", recs[0].Attr("layer"))
	}
}

package bpart

import (
	"sync/atomic"
	"testing"

	"bpart/internal/cluster"
	"bpart/internal/core"
	"bpart/internal/engine"
	"bpart/internal/gen"
	"bpart/internal/partition"
	"bpart/internal/telemetry"
	"bpart/internal/walk"
)

// offTracer reports itself disabled and counts every call it still gets.
type offTracer struct{ calls atomic.Int64 }

func (*offTracer) Enabled() bool { return false }
func (c *offTracer) Span(string, ...telemetry.Attr) telemetry.Span {
	c.calls.Add(1)
	return telemetry.Nop().Span("")
}
func (c *offTracer) Event(string, ...telemetry.Attr) { c.calls.Add(1) }

// The disabled path, as counts: a component handed a disabled tracer and
// no registry makes no Span or Event call at all, and at one worker it
// allocates exactly what a never-instrumented component does.
func TestDisabledTelemetryIsFree(t *testing.T) {
	g, err := gen.ChungLu(gen.Config{NumVertices: 1500, AvgDegree: 6, Skew: 0.7, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	chunk, err := partition.ChunkV{}.Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Each case builds a component, attaching tr when it is non-nil, and
	// returns its workload.
	cases := []struct {
		name  string
		build func(tr telemetry.Tracer) func()
	}{
		{"BPart.Partition", func(tr telemetry.Tracer) func() {
			b, err := core.New(core.Config{})
			must(err)
			if tr != nil {
				b.SetTelemetry(tr, nil)
			}
			return func() { _, err := b.Partition(g, 8); must(err) }
		}},
		{"partition.Stream", func(tr telemetry.Tracer) func() {
			return func() {
				_, err := partition.Stream(g, partition.StreamOptions{K: 8, C: 0.5, In: g.In(), Tracer: tr})
				must(err)
			}
		}},
		{"Engine.PageRank+ConnectedComponents", func(tr telemetry.Tracer) func() {
			e, err := engine.New(g, chunk.Parts, 4, cluster.DefaultCostModel())
			must(err)
			e.Cluster().SetWorkers(1)
			if tr != nil {
				e.SetTelemetry(tr, nil)
			}
			return func() {
				_, err := e.PageRank(5, 0.85)
				must(err)
				_, err = e.ConnectedComponents(0)
				must(err)
			}
		}},
		{"walk.Run", func(tr telemetry.Tracer) func() {
			e, err := walk.New(g, chunk.Parts, 4, cluster.DefaultCostModel())
			must(err)
			e.Cluster().SetWorkers(1)
			if tr != nil {
				e.SetTelemetry(tr, nil)
			}
			return func() {
				_, err := e.Run(walk.Config{Kind: walk.Simple, WalkersPerVertex: 1, Steps: 4, Seed: 1})
				must(err)
			}
		}},
	}
	for _, c := range cases {
		off := &offTracer{}
		instrumented, plain := c.build(off), c.build(nil)
		instrumented()
		if n := off.calls.Load(); n != 0 {
			t.Errorf("%s: %d Span/Event calls reached a disabled tracer", c.name, n)
		}
		if a, b := testing.AllocsPerRun(3, instrumented), testing.AllocsPerRun(3, plain); a != b {
			t.Errorf("%s: %v allocs per run with a disabled tracer, %v never instrumented", c.name, a, b)
		}
	}
}

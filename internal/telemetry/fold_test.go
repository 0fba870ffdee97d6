package telemetry

import (
	"sync"
	"testing"
)

// The fold rule: a span counts once when it ends; its End ints and bools
// are summed, its End floats are gauges; Start and Annotate attributes,
// strings and Any payloads are not folded; an event counts once.
func TestFoldRule(t *testing.T) {
	reg := NewRegistry()
	for i := 1; i <= 2; i++ {
		sp := reg.Span("bpart.layer", Int("k", 8), Float("epsilon", 0.1))
		sp.Annotate(Int("annotated", 5))
		sp.End(Int("groups_frozen", i), Bool("fell_back", i == 2), Float("residual_v_bias", float64(i)/10),
			String("error", "x"), Any("sizes", []int{1, 2}))
	}
	reg.Event("fault.crash", Int("machine", 3))
	reg.Event("fault.crash")

	counters := map[string]int64{
		"bpart_layer_total":               2,
		"bpart_layer_groups_frozen_total": 3,
		"bpart_layer_fell_back_total":     1,
		"fault_crash_total":               2,
	}
	for name, want := range counters {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Gauge("bpart_layer_residual_v_bias").Value(); got != 0.2 {
		t.Errorf("bpart_layer_residual_v_bias = %v, want the last End's 0.2", got)
	}
	// Nothing else was folded: no start, annotate, string, Any or event attr.
	snap := reg.Snapshot()
	if len(snap) != len(counters)+1 {
		t.Errorf("registry holds %d metrics, want %d: %v", len(snap), len(counters)+1, snap)
	}
}

// A nil registry is a disabled tracer: Tee drops it, and calling it
// directly is a no-op.
func TestFoldNilRegistry(t *testing.T) {
	var reg *Registry
	if reg.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	reg.Span("a.b", Int("k", 1)).End(Int("n", 1))
	reg.Event("a.b")
	if _, ok := Tee(nil, reg).(nopTracer); !ok {
		t.Fatal("Tee of a nil tracer and a nil registry is not the no-op tracer")
	}
	mem := NewMemory()
	if got := Tee(mem, reg); got != Tracer(mem) {
		t.Fatalf("Tee(mem, nil registry) = %T, want the memory tracer itself", got)
	}
	if got := Tee(Nop(), NewRegistry()); !got.Enabled() {
		t.Fatal("Tee dropped a live registry")
	}
}

// Folding from many goroutines at once loses nothing.
func TestFoldConcurrent(t *testing.T) {
	reg := NewRegistry()
	tr := Tee(NewMemory(), reg)
	const goroutines, rounds = 8, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				sp := tr.Span("walk.run")
				sp.End(Int("steps", 3), Float("sim_time_us", 1))
				tr.Event("cluster.superstep")
			}
		}()
	}
	wg.Wait()
	for name, want := range map[string]int64{
		"walk_run_total":          goroutines * rounds,
		"walk_run_steps_total":    3 * goroutines * rounds,
		"cluster_superstep_total": goroutines * rounds,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := reg.Gauge("walk_run_sim_time_us").Value(); got != 1 {
		t.Errorf("walk_run_sim_time_us = %v, want 1", got)
	}
}

package walk

import (
	"testing"

	"bpart/internal/gen"
	"bpart/internal/telemetry"
)

// A traced walk run must emit one walk.run span whose attrs match the
// Result, plus one cluster.superstep record per BSP iteration.
func TestRunTelemetry(t *testing.T) {
	g := gen.Ring(200)
	e := newEngine(t, g, 4)
	tr := telemetry.NewMemory()
	reg := telemetry.NewRegistry()
	e.SetTelemetry(tr, reg)

	res, err := e.Run(Config{Kind: Simple, WalkersPerVertex: 2, Steps: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	runs := tr.Find("walk.run")
	if len(runs) != 1 {
		t.Fatalf("got %d walk.run spans, want 1", len(runs))
	}
	sp := runs[0]
	if got := sp.Attr("kind"); got != "SimpleWalk" {
		t.Fatalf("walk.run kind = %v", got)
	}
	if got := sp.Attr("total_steps"); got != res.TotalSteps {
		t.Fatalf("walk.run total_steps = %v, want %d", got, res.TotalSteps)
	}
	if got := sp.Attr("message_walks"); got != res.MessageWalks {
		t.Fatalf("walk.run message_walks = %v, want %d", got, res.MessageWalks)
	}
	if got := sp.Attr("iterations"); got != int64(len(res.Stats.Iterations)) {
		t.Fatalf("walk.run iterations = %v, want %d", got, len(res.Stats.Iterations))
	}
	if got := sp.Attr("sim_time_us"); got != res.Stats.TotalTime() {
		t.Fatalf("walk.run sim_time_us = %v, want %v", got, res.Stats.TotalTime())
	}

	steps := tr.Find("cluster.superstep")
	if len(steps) != len(res.Stats.Iterations) {
		t.Fatalf("got %d superstep records, want %d", len(steps), len(res.Stats.Iterations))
	}
	if got := reg.Counter("cluster_superstep_total").Value(); got != int64(len(steps)) {
		t.Fatalf("cluster_superstep_total = %d, want %d", got, len(steps))
	}
}

// A registry attached alone folds the walk.run span: one run, its
// simulated time as a gauge, and its transferred walkers summed to
// MessageWalks.
func TestRunHistograms(t *testing.T) {
	g := gen.Ring(200)
	e := newEngine(t, g, 4)
	reg := telemetry.NewRegistry()
	e.SetTelemetry(nil, reg)

	res, err := e.Run(Config{Kind: Simple, WalkersPerVertex: 2, Steps: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("walk_run_message_walks_total").Value(); got != res.MessageWalks || got == 0 {
		t.Fatalf("walk_run_message_walks_total = %d, want MessageWalks %d > 0", got, res.MessageWalks)
	}
	if got := reg.Counter("walk_run_total").Value(); got != 1 {
		t.Fatalf("walk_run_total = %d, want 1", got)
	}
	if got := reg.Gauge("walk_run_sim_time_us").Value(); got != res.Stats.TotalTime() {
		t.Fatalf("walk_run_sim_time_us = %v, want %v", got, res.Stats.TotalTime())
	}
}

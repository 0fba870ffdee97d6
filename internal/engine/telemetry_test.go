package engine

import (
	"sync"
	"testing"

	"bpart/internal/gen"
	"bpart/internal/telemetry"
)

// A traced PageRank run must emit one engine.pagerank span and one
// cluster.superstep record per iteration, each mirroring IterationStats.
func TestPageRankTelemetry(t *testing.T) {
	g, err := gen.ChungLu(gen.Config{NumVertices: 2000, AvgDegree: 8, Skew: 0.7, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, g, 4)
	tr := telemetry.NewMemory()
	reg := telemetry.NewRegistry()
	e.SetTelemetry(tr, reg)

	res, err := e.PageRank(5, 0.85)
	if err != nil {
		t.Fatal(err)
	}

	runs := tr.Find("engine.pagerank")
	if len(runs) != 1 {
		t.Fatalf("got %d engine.pagerank spans, want 1", len(runs))
	}
	if got := runs[0].Attr("iterations"); got != int64(5) {
		t.Fatalf("run span iterations = %v, want 5", got)
	}
	if got := runs[0].Attr("sim_time_us"); got != res.Stats.TotalTime() {
		t.Fatalf("run span sim_time_us = %v, want %v", got, res.Stats.TotalTime())
	}

	steps := tr.Find("cluster.superstep")
	if len(steps) != len(res.Stats.Iterations) {
		t.Fatalf("got %d superstep records, want %d", len(steps), len(res.Stats.Iterations))
	}
	for i, rec := range steps {
		it := res.Stats.Iterations[i]
		if got := rec.Attr("time_us"); got != it.Time {
			t.Fatalf("superstep %d time_us = %v, want %v", i, got, it.Time)
		}
		comp, ok := rec.Attr("compute").([]float64)
		if !ok || len(comp) != 4 {
			t.Fatalf("superstep %d compute attr = %v", i, rec.Attr("compute"))
		}
		for m := range comp {
			if comp[m] != it.Compute[m] {
				t.Fatalf("superstep %d machine %d compute %v, IterationStats %v",
					i, m, comp[m], it.Compute[m])
			}
		}
	}
	if got := reg.Counter("cluster_supersteps_total").Value(); got != int64(len(steps)) {
		t.Fatalf("cluster_supersteps_total = %d, want %d", got, len(steps))
	}
	if got := reg.Counter("cluster_messages_total").Value(); got != res.Stats.TotalMessages() {
		t.Fatalf("cluster_messages_total = %d, want %d", got, res.Stats.TotalMessages())
	}
}

// Two engines sharing one tracer and registry, run concurrently: the
// worker goroutines of Cluster.RunTasks and the telemetry counters must be
// race-free (this test is the -race coverage the telemetry layer needs).
func TestTelemetrySharedAcrossEnginesConcurrently(t *testing.T) {
	g, err := gen.ChungLu(gen.Config{NumVertices: 1500, AvgDegree: 6, Skew: 0.7, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewMemory()
	reg := telemetry.NewRegistry()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		e := newEngine(t, g, 4)
		e.SetTelemetry(tr, reg)
		wg.Add(1)
		go func(e *Engine) {
			defer wg.Done()
			if _, err := e.PageRank(4, 0.85); err != nil {
				t.Error(err)
			}
			if _, err := e.ConnectedComponents(3); err != nil {
				t.Error(err)
			}
		}(e)
	}
	// A reader polling the registry while both runs are live.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = reg.Snapshot()
		}
	}()
	wg.Wait()

	if got := len(tr.Find("engine.pagerank")); got != 2 {
		t.Fatalf("got %d engine.pagerank spans, want 2", got)
	}
	if got := len(tr.Find("engine.cc")); got != 2 {
		t.Fatalf("got %d engine.cc spans, want 2", got)
	}
	if reg.Counter("cluster_supersteps_total").Value() == 0 {
		t.Fatal("no supersteps counted")
	}
}

// BFS and CC also carry run-level spans.
func TestTraversalTelemetry(t *testing.T) {
	g, err := gen.ChungLu(gen.Config{NumVertices: 1000, AvgDegree: 6, Skew: 0.7, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, g, 4)
	tr := telemetry.NewMemory()
	e.SetTelemetry(tr, nil)
	if _, err := e.BFS(0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ConnectedComponents(0); err != nil {
		t.Fatal(err)
	}
	if got := len(tr.Find("engine.bfs")); got != 1 {
		t.Fatalf("engine.bfs spans = %d, want 1", got)
	}
	ccs := tr.Find("engine.cc")
	if len(ccs) != 1 {
		t.Fatalf("engine.cc spans = %d, want 1", len(ccs))
	}
	if comp, ok := ccs[0].Attr("components").(int64); !ok || comp < 1 {
		t.Fatalf("engine.cc components attr = %v", ccs[0].Attr("components"))
	}
}

// Histograms: each traced algorithm run observes its simulated time once;
// BFS additionally records its frontier sizes.
func TestRunHistograms(t *testing.T) {
	g, err := gen.ChungLu(gen.Config{NumVertices: 2000, AvgDegree: 8, Skew: 0.7, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t, g, 4)
	reg := telemetry.NewRegistry()
	e.SetTelemetry(nil, reg)

	pr, err := e.PageRank(3, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	bfs, err := e.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	rh := reg.Histogram("engine_run_sim_time_us")
	if rh.Count() != 2 {
		t.Fatalf("run time observations = %d, want 2 (PR + BFS)", rh.Count())
	}
	want := pr.Stats.TotalTime() + bfs.Stats.TotalTime()
	if got := rh.Sum(); got != want {
		t.Fatalf("run time sum = %v, want %v", got, want)
	}
	fh := reg.Histogram("engine_bfs_frontier_vertices")
	if got := fh.Count(); got != int64(len(bfs.Stats.Iterations)) {
		t.Fatalf("frontier observations = %d, want %d", got, len(bfs.Stats.Iterations))
	}
}

package walk

import (
	"fmt"
	"sync"
	"testing"

	"bpart/internal/fault"
	"bpart/internal/gen"
	"bpart/internal/graph"
)

// reuseGraph is the graph and modulo placement the reuse tests walk over.
func reuseGraph(t *testing.T) (*graph.Graph, []int) {
	t.Helper()
	g, err := gen.ChungLu(gen.Config{NumVertices: 400, AvgDegree: 6, Skew: 0.6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]int, g.NumVertices())
	for v := range parts {
		parts[v] = v % 4
	}
	return g, parts
}

// attachFaults puts e under spec, or with nil takes it off any schedule.
func attachFaults(t *testing.T, e *Engine, spec *fault.Spec) {
	t.Helper()
	var ctl *fault.Controller
	if spec != nil {
		var err error
		if ctl, err = fault.NewController(e.Graph(), e.Cluster(), spec.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.SetFaults(ctl); err != nil {
		t.Fatal(err)
	}
}

// TestReusedEngineMatchesFresh runs one engine through a sequence of Runs
// that reuse its walker buffers (every kind, a Sources-restricted run, a
// run with 3× the walkers, so the buffers grow, and a rollback and a
// restream run, which replace the active lists mid-run) and holds each to
// the same Run on a fresh engine. The restream leaves a machine dead, so
// the Run after it is held to a fresh engine that ran the restream alone.
func TestReusedEngineMatchesFresh(t *testing.T) {
	const k = 4
	g, parts := reuseGraph(t)
	restream, err := fault.ReadSpecFile("../fault/testdata/crash5_restream.json")
	if err != nil {
		t.Fatal(err)
	}
	rollback := &fault.Spec{CheckpointEvery: 2, Events: []fault.Event{{Kind: fault.Crash, Step: 5, Machine: 1}}}
	faulty := Config{Kind: DeepWalk, WalkersPerVertex: 2, Seed: 11, TrackVisits: true, CollectPaths: true}
	seq := []struct {
		name string
		cfg  Config
		spec *fault.Spec
	}{
		{"simple", Config{Kind: Simple, Seed: 11}, nil},
		{"ppr visits", Config{Kind: PPR, Seed: 12, TrackVisits: true}, nil},
		{"deepwalk paths", Config{Kind: DeepWalk, Seed: 13, CollectPaths: true}, nil},
		{"node2vec", Config{Kind: Node2Vec, Seed: 14}, nil},
		{"biased", Config{Kind: BiasedWalk, Seed: 15, TrackVisits: true}, nil},
		{"sources", Config{Kind: PPR, Seed: 16, Sources: []graph.VertexID{3, 99, 250}, WalkersPerVertex: 20, TrackVisits: true, CollectPaths: true}, nil},
		{"3 per vertex", Config{Kind: Node2Vec, Seed: 17, WalkersPerVertex: 3, TrackVisits: true, CollectPaths: true}, nil},
		{"rollback", faulty, rollback},
		{"crash5_restream", faulty, restream.ForMachines(k)},
		{"simple again", Config{Kind: Simple, Seed: 11, TrackVisits: true, CollectPaths: true}, nil},
	}
	reused := gridEngine(t, g, parts, k, 0, true, nil)
	for _, s := range seq {
		fresh := gridEngine(t, g, parts, k, 0, true, s.spec)
		if s.name == "simple again" {
			// The fresh engine loses the machine the reused one lost.
			fresh = gridEngine(t, g, parts, k, 0, true, restream.ForMachines(k))
			if _, err := fresh.Run(faulty); err != nil {
				t.Fatal(err)
			}
			attachFaults(t, fresh, nil)
		}
		ref, err := fresh.Run(s.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if s.spec != nil && (ref.Recovery == nil || ref.Recovery.Crashes != 1) {
			t.Fatalf("%s: schedule did not fire: %+v", s.name, ref.Recovery)
		}
		attachFaults(t, reused, s.spec)
		got, err := reused.Run(s.cfg)
		if err != nil {
			t.Fatal(err)
		}
		attachFaults(t, reused, nil)
		sameWalk(t, s.name, ref, got)
	}
}

// TestConcurrentRunsOnOneEngine runs two walks on one engine at once, and
// holds them to the same two walks run one after the other: a Run beside
// another builds its own walker buffers, so neither sees the other's.
func TestConcurrentRunsOnOneEngine(t *testing.T) {
	const k = 4
	g, parts := reuseGraph(t)
	cfgs := [2]Config{
		{Kind: DeepWalk, Seed: 21, WalkersPerVertex: 2, TrackVisits: true, CollectPaths: true},
		{Kind: BiasedWalk, Seed: 22, TrackVisits: true, CollectPaths: true},
	}
	seq := gridEngine(t, g, parts, k, 0, true, nil)
	var want [2]*Result
	for i, cfg := range cfgs {
		var err error
		if want[i], err = seq.Run(cfg); err != nil {
			t.Fatal(err)
		}
	}
	e := gridEngine(t, g, parts, k, 0, true, nil)
	for round := 0; round < 4; round++ {
		var got [2]*Result
		var errs [2]error
		var wg sync.WaitGroup
		for i := range cfgs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i], errs[i] = e.Run(cfgs[i])
			}(i)
		}
		wg.Wait()
		for i := range cfgs {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			sameWalk(t, fmt.Sprintf("round %d %v", round, cfgs[i].Kind), want[i], got[i])
		}
	}
}

package walk

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"bpart/internal/cluster"
	"bpart/internal/core"
	"bpart/internal/fault"
	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/partition"
)

// gridEngine builds a walk engine over parts at the given pool width and
// matrix-capture mode, under spec when non-nil.
func gridEngine(t *testing.T, g *graph.Graph, parts []int, k, workers int, matrix bool, spec *fault.Spec) *Engine {
	t.Helper()
	e, err := New(g, parts, k, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	e.Cluster().SetWorkers(workers)
	e.Cluster().SetCommMatrix(matrix)
	if spec != nil {
		ctl, err := fault.NewController(g, e.Cluster(), spec.Clone())
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetFaults(ctl); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// sameWalk fails unless got reproduces ref: the aggregate counters, visit
// counts, traffic matrix, path corpus (order unspecified, so sorted) and
// every superstep's IterationStats.
func sameWalk(t *testing.T, label string, ref, got *Result) {
	t.Helper()
	if got.TotalSteps != ref.TotalSteps || got.MessageWalks != ref.MessageWalks || got.Finished != ref.Finished {
		t.Errorf("%s: steps/messages/finished %d/%d/%d, want %d/%d/%d", label,
			got.TotalSteps, got.MessageWalks, got.Finished, ref.TotalSteps, ref.MessageWalks, ref.Finished)
	}
	if !reflect.DeepEqual(got.Visits, ref.Visits) {
		t.Errorf("%s: visit counts differ", label)
	}
	if !reflect.DeepEqual(got.Traffic, ref.Traffic) {
		t.Errorf("%s: traffic matrix differs", label)
	}
	sortPaths(ref.Paths)
	sortPaths(got.Paths)
	if !reflect.DeepEqual(got.Paths, ref.Paths) {
		t.Errorf("%s: path corpus differs (%d vs %d paths)", label, len(got.Paths), len(ref.Paths))
	}
	if !reflect.DeepEqual(got.Stats.Iterations, ref.Stats.Iterations) {
		t.Errorf("%s: IterationStats differ (%d vs %d supersteps)", label, len(got.Stats.Iterations), len(ref.Stats.Iterations))
	}
	if !reflect.DeepEqual(got.Recovery, ref.Recovery) {
		t.Errorf("%s: RecoveryStats differ: %+v vs %+v", label, got.Recovery, ref.Recovery)
	}
}

// TestParallelWalkWorkerGridIdentical is the walk engine's row of the
// worker grid: the per-machine phase runs one RunTasks task per machine,
// each confined to its own RNG stream, active list, outbox row and counter
// slots, so every result and every IterationStats is identical at any pool
// width — with matrix capture off or on, and under rollback and restream
// recovery.
func TestParallelWalkWorkerGridIdentical(t *testing.T) {
	const k = 4
	g, err := gen.ChungLu(gen.Config{NumVertices: 400, AvgDegree: 6, Skew: 0.6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	bp, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	placements := map[string][]int{}
	for name, p := range map[string]partition.Partitioner{"Chunk-V": partition.ChunkV{}, "BPart": bp} {
		a, err := p.Partition(g, k)
		if err != nil {
			t.Fatal(err)
		}
		placements[name] = a.Parts
	}
	widths := []int{2, 4, runtime.NumCPU()}
	for _, kind := range []Kind{Simple, PPR, DeepWalk, Node2Vec} {
		cfg := Config{Kind: kind, WalkersPerVertex: 2, Seed: 11, TrackVisits: true, CollectPaths: true}
		for scheme, parts := range placements {
			for _, matrix := range []bool{false, true} {
				ref, err := gridEngine(t, g, parts, k, 1, matrix, nil).Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range widths {
					got, err := gridEngine(t, g, parts, k, w, matrix, nil).Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					sameWalk(t, fmt.Sprintf("%v/%s matrix=%v workers=%d", kind, scheme, matrix, w), ref, got)
				}
			}
		}
	}

	restream, err := fault.ReadSpecFile("../fault/testdata/crash5_restream.json")
	if err != nil {
		t.Fatal(err)
	}
	rollback := &fault.Spec{CheckpointEvery: 2, Events: []fault.Event{{Kind: fault.Crash, Step: 5, Machine: 1}}}
	cfg := Config{Kind: DeepWalk, WalkersPerVertex: 2, Seed: 11, TrackVisits: true, CollectPaths: true}
	for name, spec := range map[string]*fault.Spec{"rollback": rollback, "crash5_restream": restream.ForMachines(k)} {
		ref, err := gridEngine(t, g, placements["BPart"], k, 1, true, spec).Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Recovery == nil || ref.Recovery.Crashes != 1 {
			t.Fatalf("%s: schedule did not fire: %+v", name, ref.Recovery)
		}
		got, err := gridEngine(t, g, placements["BPart"], k, 4, true, spec).Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameWalk(t, name+" workers=4", ref, got)
	}
}

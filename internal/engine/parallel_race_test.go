package engine

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"bpart/internal/cluster"
	"bpart/internal/fault"
)

// The race battery: parallel supersteps under the race detector, with
// fault injection firing at a superstep boundary while the worker pool is
// live, and independent engines running concurrently. `go test -race -run
// Parallel` is the CI entry point; every test here doubles as a byte-
// identity check against a sequential run of the same schedule.

// faultSpec loads a fault schedule fixture fresh for each engine (the
// controller owns its spec once attached).
func faultSpec(t testing.TB, name string) *fault.Spec {
	t.Helper()
	spec, err := fault.ReadSpecFile("../fault/testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// parallelFaultEngine is faultEngine plus a live worker pool and the comm
// matrix enabled, so recovery runs with workers scanning while the
// controller crashes and restores machines at barriers.
func parallelFaultEngine(t testing.TB, spec *fault.Spec, workers int) *Engine {
	t.Helper()
	e := faultEngine(t, testGraph(t), 4, spec)
	e.Cluster().SetCommMatrix(true)
	e.Cluster().SetWorkers(workers)
	return e
}

// TestParallelRollbackCrashByteIdentical crashes machine 1 at superstep 5
// under the rollback policy while four workers drive the supersteps; the
// recovered run must match the sequential run of the same schedule byte
// for byte (results, RunStats, recovery stats and comm matrix).
func TestParallelRollbackCrashByteIdentical(t *testing.T) {
	for _, algo := range []parallelAlgo{
		{"PageRank", func(e *Engine) ([]byte, error) { return marshalRun(e.PageRank(10, 0.85)) }},
		{"PageRankPull", func(e *Engine) ([]byte, error) { return marshalRun(e.PageRankPull(10, 0.85)) }},
		{"CC", func(e *Engine) ([]byte, error) { return marshalRun(e.ConnectedComponents(0)) }},
		{"BFS", func(e *Engine) ([]byte, error) { return marshalRun(e.BFS(0)) }},
	} {
		ref, err := algo.run(parallelFaultEngine(t, faultSpec(t, "crash5.json"), 1))
		if err != nil {
			t.Fatalf("%s workers=1: %v", algo.name, err)
		}
		for _, wk := range []int{2, 4} {
			got, err := algo.run(parallelFaultEngine(t, faultSpec(t, "crash5.json"), wk))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", algo.name, wk, err)
			}
			if !bytes.Equal(got, ref) {
				t.Errorf("%s workers=%d: crash+rollback run differs from sequential run of the same schedule", algo.name, wk)
			}
		}
	}
}

// restreamDigest pins the width-1 crash+restream PageRank run: the SHA-256
// of the JSON of its ranks, run stats (comm matrix included) and recovery
// stats. A restream defect that is the same at every width (say, machine
// vertex lists left stale by a re-home) changes it.
const restreamDigest = "68598b3338a2b47e0917bb34286c6b87157b0112835d0256c146d442afc95129"

// TestParallelRestreamCrashByteIdentical covers the other recovery policy:
// the crash is permanent, survivors take over the dead machine's vertices,
// and the reassigned run continues on the live worker pool. The width-1
// run must match its pinned digest, and every width must match it byte for
// byte.
func TestParallelRestreamCrashByteIdentical(t *testing.T) {
	run := func(e *Engine) ([]byte, error) {
		res, err := e.PageRank(10, 0.85)
		if err != nil {
			return nil, err
		}
		return json.Marshal(struct {
			Ranks    []float64
			Stats    cluster.RunStats
			Recovery *fault.RecoveryStats
		}{res.Ranks, res.Stats, res.Recovery})
	}
	ref, err := run(parallelFaultEngine(t, faultSpec(t, "crash5_restream.json"), 1))
	if err != nil {
		t.Fatalf("workers=1: %v", err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(ref)); got != restreamDigest {
		t.Errorf("workers=1: crash+restream run digest %s, pinned %s", got, restreamDigest)
	}
	for _, wk := range []int{2, 4} {
		got, err := run(parallelFaultEngine(t, faultSpec(t, "crash5_restream.json"), wk))
		if err != nil {
			t.Fatalf("workers=%d: %v", wk, err)
		}
		if !bytes.Equal(got, ref) {
			t.Errorf("workers=%d: crash+restream run differs from sequential run of the same schedule", wk)
		}
	}
}

// TestParallelConcurrentEngines runs independent engines, each with its
// own 4-worker pool (one of them under fault injection), at the same
// time. Engines share no mutable state, so the race detector staying
// quiet here certifies the kernel's state is fully per-engine.
func TestParallelConcurrentEngines(t *testing.T) {
	g := testGraph(t)
	type job struct {
		name string
		e    *Engine
		run  func(e *Engine) ([]byte, error)
	}
	jobs := []job{
		{"pagerank", schemeEngine(t, g, "Chunk-V", 4), func(e *Engine) ([]byte, error) { return marshalRun(e.PageRank(10, 0.85)) }},
		{"cc", schemeEngine(t, g, "Hash", 4), func(e *Engine) ([]byte, error) { return marshalRun(e.ConnectedComponents(0)) }},
		{"sssp", schemeEngine(t, g, "Chunk-E", 4), func(e *Engine) ([]byte, error) { return marshalRun(e.SSSP(0)) }},
		{"faulted", parallelFaultEngine(t, faultSpec(t, "crash5.json"), 4), func(e *Engine) ([]byte, error) { return marshalRun(e.PageRank(10, 0.85)) }},
	}
	refs := make([][]byte, len(jobs))
	for i, j := range jobs {
		j.e.Cluster().SetWorkers(1)
		b, err := j.run(j.e)
		if err != nil {
			t.Fatalf("%s reference: %v", j.name, err)
		}
		refs[i] = b
	}
	var wg sync.WaitGroup
	errs := make([]error, len(jobs))
	got := make([][]byte, len(jobs))
	for i, j := range jobs {
		j.e.Cluster().SetWorkers(4)
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			got[i], errs[i] = j.run(j.e)
		}(i, j)
	}
	wg.Wait()
	for i, j := range jobs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", j.name, errs[i])
		}
		if !bytes.Equal(got[i], refs[i]) {
			t.Errorf("%s: concurrent 4-worker run differs from its own sequential run", j.name)
		}
	}
}

// TestParallelConcurrentRunsShareEngine runs the same algorithm twice at
// once on ONE engine that has built neither its transpose nor its cut
// degrees, so both runs race to the lazy builders on their first push
// superstep. The matrix stays off (the cut degrees are only built then);
// CC needs both directions. That warms the engine, which now keeps a spare
// kernel state, so rounds of CC, SSSP and BFS then run at once on it: one
// Run takes the spare and the others make their own, and no two may
// share one. Every run must match a sequential run on an engine of its
// own.
func TestParallelConcurrentRunsShareEngine(t *testing.T) {
	g := testGraph(t)
	algos := []parallelAlgo{
		{"CC", func(e *Engine) ([]byte, error) { return marshalRun(e.ConnectedComponents(0)) }},
		{"SSSP", func(e *Engine) ([]byte, error) { return marshalRun(e.SSSP(0)) }},
		{"BFS", func(e *Engine) ([]byte, error) { return marshalRun(e.BFS(0)) }},
	}
	refs := make([][]byte, len(algos))
	for i, a := range algos {
		var err error
		if refs[i], err = a.run(newEngine(t, g, 4)); err != nil {
			t.Fatalf("%s reference: %v", a.name, err)
		}
	}
	e := newEngine(t, g, 4)
	e.Cluster().SetWorkers(2)
	// concurrently runs algos[pick[i]] for every i at once on e.
	concurrently := func(round string, pick []int) {
		var wg sync.WaitGroup
		got := make([][]byte, len(pick))
		errs := make([]error, len(pick))
		for i, a := range pick {
			wg.Add(1)
			go func(i int, a parallelAlgo) {
				defer wg.Done()
				got[i], errs[i] = a.run(e)
			}(i, algos[a])
		}
		wg.Wait()
		for i, a := range pick {
			if errs[i] != nil {
				t.Fatalf("%s: %s: %v", round, algos[a].name, errs[i])
			}
			if !bytes.Equal(got[i], refs[a]) {
				t.Errorf("%s: %s on the shared engine differs from a sequential run on its own engine", round, algos[a].name)
			}
		}
	}
	concurrently("cold", []int{0, 0})
	for r := 0; r < 4; r++ {
		concurrently(fmt.Sprintf("warm round %d", r), []int{0, 1, 2})
	}
}

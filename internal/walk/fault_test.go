package walk

import (
	"reflect"
	"sort"
	"testing"

	"bpart/internal/cluster"
	"bpart/internal/fault"
	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/telemetry"
)

func faultWalkEngine(t *testing.T, g *graph.Graph, k int, spec *fault.Spec) *Engine {
	t.Helper()
	assign := make([]int, g.NumVertices())
	for v := range assign {
		assign[v] = v % k
	}
	e, err := New(g, assign, k, cluster.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if spec != nil {
		ctl, err := fault.NewController(g, e.Cluster(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.SetFaults(ctl); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func sortPaths(ps [][]graph.VertexID) {
	sort.Slice(ps, func(a, b int) bool {
		pa, pb := ps[a], ps[b]
		for i := 0; i < len(pa) && i < len(pb); i++ {
			if pa[i] != pb[i] {
				return pa[i] < pb[i]
			}
		}
		return len(pa) < len(pb)
	})
}

// TestWalkRollbackIdenticalResults: a crashed-and-recovered walk run must
// reproduce the fault-free visits, paths and traffic exactly — walker
// state and each machine's RNG stream position are checkpointed together,
// so replayed supersteps redraw the very same random numbers, and restored
// walkers rewrite only the arena cells past their restored paths. PPR ends
// walks early, so paths of every length cross the rollback; node2vec's
// second-order state (a prev exactly when a step has been spent) must
// survive it too.
func TestWalkRollbackIdenticalResults(t *testing.T) {
	g, err := gen.ChungLu(gen.Config{NumVertices: 300, AvgDegree: 6, Skew: 0.6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []Kind{Simple, PPR, Node2Vec} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := Config{Kind: kind, WalkersPerVertex: 2, Steps: 8, Seed: 3, TrackVisits: true, CollectPaths: true}
			base, err := faultWalkEngine(t, g, 4, nil).Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			spec := &fault.Spec{CheckpointEvery: 2, Events: []fault.Event{{Kind: fault.Crash, Step: 5, Machine: 1}}}
			got, err := faultWalkEngine(t, g, 4, spec).Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Recovery == nil || got.Recovery.Crashes != 1 {
				t.Fatalf("Recovery = %+v", got.Recovery)
			}
			if !reflect.DeepEqual(base.Visits, got.Visits) {
				t.Fatal("visit counts differ after recovery")
			}
			if !reflect.DeepEqual(base.Paths, got.Paths) {
				t.Fatalf("paths differ after recovery: %d vs %d paths", len(base.Paths), len(got.Paths))
			}
			if base.Finished != got.Finished {
				t.Fatalf("Finished differs: %d vs %d", base.Finished, got.Finished)
			}
			// Replayed supersteps re-execute real work, so the recovered
			// run's step count strictly exceeds the baseline's.
			if got.TotalSteps <= base.TotalSteps {
				t.Fatalf("TotalSteps %d not > baseline %d", got.TotalSteps, base.TotalSteps)
			}
		})
	}
}

// TestWalkRestreamCompletes: permanent loss mid-walk migrates stranded
// walkers to the survivors and the run still finishes every walker, each
// with one valid path from its start.
func TestWalkRestreamCompletes(t *testing.T) {
	g, err := gen.ChungLu(gen.Config{NumVertices: 300, AvgDegree: 6, Skew: 0.6, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	spec := &fault.Spec{
		Policy:          fault.Restream,
		CheckpointEvery: 2,
		Events:          []fault.Event{{Kind: fault.Crash, Step: 3, Machine: 2}},
	}
	e := faultWalkEngine(t, g, 4, spec)
	const steps = 8
	cfg := Config{Kind: Simple, WalkersPerVertex: 1, Steps: steps, Seed: 3, TrackVisits: true, CollectPaths: true}
	res, err := e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery == nil || res.Recovery.RestreamedVertices == 0 {
		t.Fatalf("Recovery = %+v", res.Recovery)
	}
	if e.Cluster().LiveMachines() != 3 {
		t.Fatalf("LiveMachines = %d", e.Cluster().LiveMachines())
	}
	if res.Finished != int64(g.NumVertices()) {
		t.Fatalf("Finished = %d, want %d", res.Finished, g.NumVertices())
	}
	if len(res.Paths) != g.NumVertices() {
		t.Fatalf("%d paths, want one per walker (%d)", len(res.Paths), g.NumVertices())
	}
	starts := make([]int, g.NumVertices())
	for _, p := range res.Paths {
		if len(p) == 0 || len(p) > steps+1 {
			t.Fatalf("path length %d out of [1,%d]", len(p), steps+1)
		}
		// A Simple walk ends early only at a dead end.
		if len(p) < steps+1 && g.OutDegree(p[len(p)-1]) != 0 {
			t.Fatalf("path %v ends early at a vertex with out-neighbours", p)
		}
		starts[p[0]]++
		for i := 1; i < len(p); i++ {
			if !g.HasEdge(p[i-1], p[i]) {
				t.Fatalf("path hop %d→%d is not an edge", p[i-1], p[i])
			}
		}
	}
	for v, c := range starts {
		if c != 1 {
			t.Fatalf("vertex %d starts %d paths, want 1", v, c)
		}
	}
	// Every executed step lands somewhere: total visits == total steps
	// that moved a walker is hard to assert across replays, but visit
	// counts must at least cover every walker's full walk once.
	var visits int64
	for _, v := range res.Visits {
		visits += v
	}
	if visits == 0 {
		t.Fatal("no visits recorded in degraded mode")
	}
}

// TestWalkFaultDeterministic: same spec, same seed, twice — identical
// everything, including RecoveryStats.
func TestWalkFaultDeterministic(t *testing.T) {
	g, err := gen.ChungLu(gen.Config{NumVertices: 200, AvgDegree: 5, Skew: 0.5, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *fault.Spec {
		s, err := fault.RandomSpec(fault.RandomConfig{
			Seed: 17, Machines: 3, Horizon: 8,
			CrashProb: 0.3, SlowProb: 0.5, LossProb: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	cfg := Config{Kind: PPR, WalkersPerVertex: 1, Steps: 10, Seed: 6, TrackVisits: true}
	a, err := faultWalkEngine(t, g, 3, mk()).Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := faultWalkEngine(t, g, 3, mk()).Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Visits, b.Visits) {
		t.Fatal("visits differ across identical fault runs")
	}
	if !reflect.DeepEqual(a.Recovery, b.Recovery) {
		t.Fatalf("RecoveryStats differ:\n%+v\n%+v", a.Recovery, b.Recovery)
	}
	if a.TotalSteps != b.TotalSteps || a.MessageWalks != b.MessageWalks {
		t.Fatalf("traffic differs: %d/%d vs %d/%d", a.TotalSteps, a.MessageWalks, b.TotalSteps, b.MessageWalks)
	}
}

func TestWalkSetFaultsValidation(t *testing.T) {
	g := gen.Ring(12)
	e1 := faultWalkEngine(t, g, 2, nil)
	e2 := faultWalkEngine(t, g, 2, nil)
	ctl, err := fault.NewController(g, e2.Cluster(), &fault.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e1.SetFaults(ctl); err == nil {
		t.Fatal("controller for a different cluster accepted")
	}
}

// TestWalkFaultNothingToDo: a walk with no walkers records no superstep,
// and under a controller still reports a (zero) RecoveryStats and the
// closing fault.run event — an empty run is still a run.
func TestWalkFaultNothingToDo(t *testing.T) {
	g := gen.Ring(12)
	cfg := Config{Kind: Simple, Steps: 4, Seed: 1, Sources: []graph.VertexID{}}
	res, err := faultWalkEngine(t, g, 2, nil).Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Iterations) != 0 || res.Recovery != nil {
		t.Fatalf("fault-free empty walk: %d supersteps, Recovery %+v", len(res.Stats.Iterations), res.Recovery)
	}

	spec := &fault.Spec{CheckpointEvery: 1, Events: []fault.Event{{Kind: fault.Crash, Step: 0, Machine: 1}}}
	e := faultWalkEngine(t, g, 2, spec)
	mem := telemetry.NewMemory()
	e.flt.SetTelemetry(mem, nil)
	res, err = e.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Iterations) != 0 || res.TotalSteps != 0 {
		t.Fatalf("empty walk recorded %d supersteps, %d steps", len(res.Stats.Iterations), res.TotalSteps)
	}
	if res.Recovery == nil || *res.Recovery != (fault.RecoveryStats{}) {
		t.Fatalf("Recovery = %+v, want non-nil zero stats", res.Recovery)
	}
	if got := len(mem.Find("fault.run")); got != 1 {
		t.Fatalf("fault.run events = %d, want 1", got)
	}
}

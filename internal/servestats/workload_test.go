package servestats

import (
	"reflect"
	"testing"
)

func TestWorkloadDeterministic(t *testing.T) {
	w := Workload{Seed: 42, Vertices: 100, Requests: 500, ZipfS: 1.1, LookupW: 2, KHopW: 1, WalkW: 1}
	a, err := w.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := w.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config generated different streams")
	}
	if len(a) != 500 {
		t.Fatalf("generated %d requests, want 500", len(a))
	}
	w2 := w
	w2.Seed = 43
	c, err := w2.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated identical streams")
	}
}

func TestWorkloadMixAndDefaults(t *testing.T) {
	w := Workload{Seed: 1, Vertices: 50, Requests: 2000, LookupW: 1, KHopW: 1, WalkW: 2}
	reqs, err := w.Generate()
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, r := range reqs {
		counts[r.Endpoint]++
		switch r.Endpoint {
		case EndpointKHop:
			if r.Hops != 2 {
				t.Fatalf("khop hops = %d, want default 2", r.Hops)
			}
		case EndpointWalk:
			if r.Steps != 16 {
				t.Fatalf("walk steps = %d, want default 16", r.Steps)
			}
		}
	}
	// Walk weight is half the mass; expect roughly 1000 of 2000.
	if counts[EndpointWalk] < 800 || counts[EndpointWalk] > 1200 {
		t.Fatalf("walk count = %d, want ~1000", counts[EndpointWalk])
	}
	// Zero mix defaults to lookups only.
	onlyLookups, err := Workload{Seed: 1, Vertices: 10, Requests: 20}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range onlyLookups {
		if r.Endpoint != EndpointLookup {
			t.Fatalf("zero mix produced %q", r.Endpoint)
		}
	}
}

func TestWorkloadZipfSkew(t *testing.T) {
	uniform := Workload{Seed: 9, Vertices: 1000, Requests: 5000}
	skewed := uniform
	skewed.ZipfS = 1.5
	ur, err := uniform.Generate()
	if err != nil {
		t.Fatal(err)
	}
	sr, err := skewed.Generate()
	if err != nil {
		t.Fatal(err)
	}
	top := func(reqs []Request) int {
		counts := map[int64]int{}
		best := 0
		for _, r := range reqs {
			counts[int64(r.Vertex)]++
			if counts[int64(r.Vertex)] > best {
				best = counts[int64(r.Vertex)]
			}
		}
		return best
	}
	// Under s=1.5 the head vertex dominates; under uniform it barely repeats.
	if hu, hs := top(ur), top(sr); hs < 4*hu {
		t.Fatalf("zipf head %d not clearly hotter than uniform head %d", hs, hu)
	}
	// Skewed is not degenerate: the stream must still spread over a real
	// tail, not collapse onto the head (the (r+0)^-s infinite-weight trap).
	distinct := map[int64]bool{}
	for _, r := range sr {
		distinct[int64(r.Vertex)] = true
	}
	if len(distinct) < 100 {
		t.Fatalf("skewed stream touched only %d distinct vertices of 1000", len(distinct))
	}
}

func TestWorkloadValidation(t *testing.T) {
	for _, w := range []Workload{
		{Vertices: 0, Requests: 1},
		{Vertices: 10, Requests: -1},
		{Vertices: 10, Requests: 1, ZipfS: -1},
		{Vertices: 10, Requests: 1, Alpha: 1},
		{Vertices: 10, Requests: 1, LookupW: -1},
		{Vertices: 10, Requests: 1, Hops: -1},
		{Vertices: 10, Requests: 1, Hops: maxHops + 1},
		{Vertices: 10, Requests: 1, Steps: -1},
		{Vertices: 10, Requests: 1, Steps: maxSteps + 1},
	} {
		if _, err := w.Generate(); err == nil {
			t.Errorf("workload %+v accepted", w)
		}
	}
}

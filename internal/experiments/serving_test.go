package experiments

import (
	"bytes"
	"testing"
)

// The serving section must carry one cell per scheme with a full endpoint
// digest and routing-skew columns in their defined ranges.
func TestBenchServingSection(t *testing.T) {
	opt := Options{Scale: testScale}
	a := NewBenchArtifact(opt)
	if err := a.Collect(opt, nil); err != nil {
		t.Fatal(err)
	}
	if len(a.Serving) != len(allSchemes) {
		t.Fatalf("got %d serving cells, want %d", len(a.Serving), len(allSchemes))
	}
	for _, s := range a.Serving {
		if s.K != benchPartitionK || s.Graph == "" || s.Requests != benchServingRequests {
			t.Fatalf("serving cell = %+v", s)
		}
		if s.HotPart < 0 || s.HotPart >= benchPartitionK || s.HotShare <= 0 || s.HotShare > 1 {
			t.Fatalf("%s hot part = %+v", s.Scheme, s)
		}
		// Shares and vertex shares both sum to 1, so some part is at least
		// as hot as its size predicts.
		if s.MaxPressure < 0.99 {
			t.Fatalf("%s max pressure = %v", s.Scheme, s.MaxPressure)
		}
		if len(s.Endpoints) != 3 {
			t.Fatalf("%s endpoints = %+v", s.Scheme, s.Endpoints)
		}
		var total int64
		for _, e := range s.Endpoints {
			total += e.Requests
			if e.Requests <= 0 {
				t.Fatalf("%s %s digest = %+v", s.Scheme, e.Endpoint, e)
			}
		}
		if total != s.Requests {
			t.Fatalf("%s endpoint counts sum to %d, cell has %d", s.Scheme, total, s.Requests)
		}
	}
}

// The serving section is byte-identical across collections: the seeded
// stream routes the same way every run, and no cell holds a latency.
func TestBenchServingDeterministic(t *testing.T) {
	opt := Options{Scale: testScale}
	var outs [2]bytes.Buffer
	for i := range outs {
		a := NewBenchArtifact(opt)
		if err := a.Collect(opt, nil); err != nil {
			t.Fatal(err)
		}
		if err := a.WriteJSON(&outs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Fatal("two collections differ")
	}
}

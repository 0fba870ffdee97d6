package experiments

import (
	"bytes"
	"strings"
	"testing"

	"bpart/internal/fault"
	"bpart/internal/telemetry"
)

// Options.Faults must reach the engines an experiment builds: a faulted
// Fig 13 run emits fault events through the shared tracer, and a registry
// teed beside it counts them.
func TestOptionsFaultsReachEngines(t *testing.T) {
	mem := telemetry.NewMemory()
	reg := telemetry.NewRegistry()
	spec := &fault.Spec{CheckpointEvery: 2, Events: []fault.Event{{Kind: fault.Crash, Step: 2, Machine: 1}}}
	opt := Options{Scale: testScale, Tracer: telemetry.Tee(mem, reg), Faults: spec}
	if _, err := Fig13(opt); err != nil {
		t.Fatal(err)
	}
	if len(mem.Find("fault.crash")) == 0 {
		t.Fatal("faulted Fig 13 run emitted no fault.crash events")
	}
	if reg.Counter("fault_crash_total").Value() == 0 {
		t.Fatal("faulted Fig 13 run counted no crashes")
	}
}

// With -fault, the artifact grows a recovery section: one row per scheme,
// each with the fault-free comparison time; without it, the key is absent
// (additive schema).
func TestBenchArtifactRecoverySection(t *testing.T) {
	spec := &fault.Spec{CheckpointEvery: 2, Events: []fault.Event{{Kind: fault.Crash, Step: 3, Machine: 1}}}
	opt := Options{Scale: testScale, Faults: spec}
	a := NewBenchArtifact(opt)
	if err := a.Collect(opt, nil); err != nil {
		t.Fatal(err)
	}
	if len(a.Recovery) != len(allSchemes) {
		t.Fatalf("got %d recovery rows, want %d", len(a.Recovery), len(allSchemes))
	}
	for _, r := range a.Recovery {
		if r.Crashes != 1 || r.Checkpoints == 0 || r.SuperstepsReplayed == 0 {
			t.Fatalf("%s recovery row = %+v", r.Scheme, r)
		}
		if r.SimTimeUS <= r.FaultFreeSimTimeUS {
			t.Fatalf("%s faulty run not slower: %v <= %v", r.Scheme, r.SimTimeUS, r.FaultFreeSimTimeUS)
		}
		if r.Policy != string(fault.Rollback) {
			t.Fatalf("%s policy = %q", r.Scheme, r.Policy)
		}
	}
	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"recovery"`) || !strings.Contains(buf.String(), `"supersteps_replayed"`) {
		t.Fatalf("recovery section missing from JSON:\n%.300s", buf.String())
	}
	got, err := ReadBenchArtifact(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Recovery) != len(a.Recovery) || got.Recovery[0] != a.Recovery[0] {
		t.Fatalf("recovery section did not round-trip: %+v", got.Recovery)
	}

	plain := NewBenchArtifact(Options{Scale: testScale})
	if err := plain.Collect(Options{Scale: testScale}, nil); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := plain.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"recovery"`) {
		t.Fatal("fault-free artifact still carries a recovery key")
	}
}

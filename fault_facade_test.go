package bpart

import (
	"os"
	"path/filepath"
	"testing"
)

// EnableFaults wires a schedule into both engine families through the
// facade; a crashed-and-recovered PageRank run must still match the
// fault-free ranks bit for bit (the tentpole invariant, end to end).
func TestFacadeEnableFaults(t *testing.T) {
	g := smallTwitter(t)
	a, err := Partition(g, "BPart", 4)
	if err != nil {
		t.Fatal(err)
	}
	base, err := must(NewIterationEngine(g, a, DefaultCostModel())).PageRank(8, 0.85)
	if err != nil {
		t.Fatal(err)
	}

	ie, err := NewIterationEngine(g, a, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	spec := &FaultSpec{
		CheckpointEvery: 2,
		Events:          []FaultEvent{{Kind: CrashFault, Step: 4, Machine: 1}},
	}
	ctl, err := EnableFaults(ie, spec)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewMetrics()
	if !Instrument(ctl, NopTrace(), reg) {
		t.Fatal("controller rejected instrumentation")
	}
	pr, err := ie.PageRank(8, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Recovery == nil || pr.Recovery.Crashes != 1 {
		t.Fatalf("Recovery = %+v", pr.Recovery)
	}
	for v := range base.Ranks {
		if base.Ranks[v] != pr.Ranks[v] {
			t.Fatalf("rank[%d] differs after recovery", v)
		}
	}
	if reg.Counter("fault_crash_total").Value() != 1 {
		t.Fatal("fault counters not published")
	}

	we, err := NewWalkEngine(g, a, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EnableFaults(we, spec.Clone()); err != nil {
		t.Fatal(err)
	}
	wr, err := we.Run(WalkConfig{Kind: SimpleWalk, WalkersPerVertex: 1, Steps: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if wr.Recovery == nil || wr.Recovery.Crashes != 1 {
		t.Fatalf("walk Recovery = %+v", wr.Recovery)
	}

	if _, err := EnableFaults("not an engine", spec); err == nil {
		t.Fatal("non-engine accepted")
	}
}

// The facade's one spec loader reads back a scenario file that WriteJSON
// wrote, and a missing file is an error, not an empty schedule.
func TestFacadeFaultSpecIO(t *testing.T) {
	s := &FaultSpec{
		Policy: RestreamPolicy,
		Events: []FaultEvent{
			{Kind: CrashFault, Step: 3, Machine: 1},
			{Kind: SlowFault, Step: 1, Machine: 2, Factor: 2},
			{Kind: MsgLossFault, Step: 5, Machine: 0, Frac: 0.5},
		},
	}
	path := filepath.Join(t.TempDir(), "faults.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFaultSpecFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Policy != RestreamPolicy || len(back.Events) != len(s.Events) {
		t.Fatalf("round trip lost schedule: %+v", back)
	}
	if _, err := ReadFaultSpecFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing spec file accepted")
	}
}

func must(e *IterationEngine, err error) *IterationEngine {
	if err != nil {
		panic(err)
	}
	return e
}

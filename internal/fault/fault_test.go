package fault

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestSpecNormalizeDefaults(t *testing.T) {
	s := &Spec{Events: []Event{
		{Kind: Slow, Step: 3, Machine: 1},
		{Kind: MsgLoss, Step: 2, Machine: 0},
		{Kind: Crash, Step: 5, Machine: 2},
	}}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.Policy != Rollback || s.CheckpointEvery != DefaultCheckpointEvery || s.SchemaVersion != Version {
		t.Fatalf("defaults not applied: %+v", s)
	}
	// Events sorted by step.
	if s.Events[0].Kind != MsgLoss || s.Events[1].Kind != Slow || s.Events[2].Kind != Crash {
		t.Fatalf("events not sorted: %+v", s.Events)
	}
	if s.Events[1].Duration != 1 || s.Events[1].Factor != 2 {
		t.Fatalf("slow defaults: %+v", s.Events[1])
	}
	if s.Events[0].Frac != 1 {
		t.Fatalf("msgloss default frac: %+v", s.Events[0])
	}
}

func TestSpecNormalizeRejects(t *testing.T) {
	cases := []Spec{
		{Policy: "chaos"},
		{SchemaVersion: 99},
		{Events: []Event{{Kind: "meteor", Step: 1}}},
		{Events: []Event{{Kind: Crash, Step: -1}}},
		{Events: []Event{{Kind: Crash, Step: 0, Machine: -2}}},
		{Events: []Event{{Kind: Slow, Step: 0, Factor: 0.5}}},
		{Events: []Event{{Kind: MsgLoss, Step: 0, Frac: 1.5}}},
	}
	for i := range cases {
		if err := cases[i].Normalize(); err == nil {
			t.Errorf("case %d: invalid spec accepted: %+v", i, cases[i])
		}
	}
}

func TestSpecValidate(t *testing.T) {
	s := &Spec{Events: []Event{{Kind: Crash, Step: 1, Machine: 7}}}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(4); err == nil {
		t.Fatal("out-of-range machine accepted")
	}
	// Restream needs a survivor.
	s2 := &Spec{Policy: Restream, Events: []Event{
		{Kind: Crash, Step: 1, Machine: 0},
		{Kind: Crash, Step: 2, Machine: 1},
	}}
	if err := s2.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Validate(2); err == nil {
		t.Fatal("restream with no survivor accepted")
	}
	if err := s2.Validate(3); err != nil {
		t.Fatal(err)
	}
	// A machine cannot die twice under restream.
	s3 := &Spec{Policy: Restream, Events: []Event{
		{Kind: Crash, Step: 1, Machine: 0},
		{Kind: Crash, Step: 4, Machine: 0},
	}}
	if err := s3.Normalize(); err != nil {
		t.Fatal(err)
	}
	if err := s3.Validate(4); err == nil {
		t.Fatal("double crash of one machine accepted under restream")
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	s := &Spec{
		Policy:          Restream,
		CheckpointEvery: 3,
		Seed:            42,
		Events: []Event{
			{Kind: Crash, Step: 5, Machine: 2},
			{Kind: Slow, Step: 1, Machine: 0, Duration: 2, Factor: 3},
			{Kind: MsgLoss, Step: 4, Machine: 1, Frac: 0.5},
		},
	}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSpec(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("round trip mismatch:\nwrote %+v\nread  %+v", s, got)
	}
}

func TestReadSpecRejectsUnknownFields(t *testing.T) {
	_, err := ReadSpec(strings.NewReader(`{"events":[],"surprise":1}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestReadSpecFileMissing(t *testing.T) {
	if _, err := ReadSpecFile("/nonexistent/fault.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRandomSpecDeterministic(t *testing.T) {
	cfg := RandomConfig{
		Seed: 7, Machines: 8, Horizon: 20,
		CrashProb: 0.2, SlowProb: 0.3, LossProb: 0.3,
	}
	a, err := RandomSpec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomSpec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same config, different schedules:\n%+v\n%+v", a, b)
	}
	cfg.Seed = 8
	c, err := RandomSpec(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
	// Crash cap respected.
	crashes := 0
	for _, ev := range a.Events {
		if ev.Kind == Crash {
			crashes++
		}
	}
	if crashes > 1 {
		t.Fatalf("MaxCrashes default 1 violated: %d crashes", crashes)
	}
	if _, err := RandomSpec(RandomConfig{Machines: 0, Horizon: 5}); err == nil {
		t.Fatal("zero machines accepted")
	}
	if _, err := RandomSpec(RandomConfig{Machines: 2, Horizon: 0}); err == nil {
		t.Fatal("zero horizon accepted")
	}
}

func TestRandomSpecSeedRecorded(t *testing.T) {
	s, err := RandomSpec(RandomConfig{Seed: 99, Machines: 4, Horizon: 10, SlowProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Seed != 99 {
		t.Fatalf("Seed not recorded: %d", s.Seed)
	}
	if len(s.Events) == 0 {
		t.Fatal("SlowProb=1 produced no events")
	}
}

func TestTestdataSpecsParse(t *testing.T) {
	for _, path := range []string{"testdata/crash5.json", "testdata/crash5_restream.json"} {
		s, err := ReadSpecFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(s.Events) != 1 || s.Events[0].Kind != Crash || s.Events[0].Step != 5 {
			t.Fatalf("%s: unexpected schedule %+v", path, s)
		}
		if err := s.Validate(8); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	// Checkpointing with no faults is a schedule too: no events, and the
	// interval the file sets.
	s, err := ReadSpecFile("testdata/checkpoint2.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 0 || s.CheckpointEvery != 2 || s.Policy != Rollback {
		t.Fatalf("testdata/checkpoint2.json: unexpected schedule %+v", s)
	}
}

// Package fault injects deterministic failures into the simulated cluster
// and recovers from them.
//
// The paper's waiting-ratio argument (§2.1, Fig 13) treats the slowest
// machine as the gate on every BSP barrier; a failed machine is the limiting
// case of a straggler. Fault schedules are plain data — a JSON spec listing
// crashes, transient slowdowns and lost message batches at chosen
// supersteps — so a run is exactly replayable: the same spec, graph and
// seed produce the same recovery, superstep for superstep. Random schedules
// come from internal/xrand and serialize to the same spec format.
//
// Recovery is two-dimensionally load-bound, which is the point of measuring
// it: checkpoint time tracks per-machine vertex count, recompute and
// restream time track per-machine edge count. Two policies are provided:
//
//   - Rollback treats a crash as transient — every machine reloads the last
//     superstep-boundary checkpoint and the run replays forward
//     deterministically.
//   - Restream treats the crash as permanent — survivors reload the
//     checkpoint, the dead machine's vertices are restreamed onto the
//     survivors in degree order with a Fennel objective (after Awadelkarim &
//     Ugander's prioritized restreaming), and the run replays in degraded
//     mode.
package fault

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"bpart/internal/xrand"
)

// Version identifies the fault spec JSON schema. Bump on incompatible
// change.
const Version = 1

// Policy selects how the run recovers from a crash.
type Policy string

const (
	// Rollback reloads the last checkpoint on every machine and replays.
	Rollback Policy = "rollback"
	// Restream reloads the last checkpoint on the survivors, restreams
	// the dead machine's vertices onto them, and replays degraded.
	Restream Policy = "restream"
)

// Kind is a fault event type.
type Kind string

const (
	// Crash kills a machine at the barrier ending the event's superstep:
	// that superstep's results are lost and recovery kicks in.
	Crash Kind = "crash"
	// Slow multiplies a machine's compute time for Duration supersteps —
	// a transient straggler (thermal throttle, noisy neighbour).
	Slow Kind = "slow"
	// MsgLoss drops a fraction of a machine's outgoing message batch in
	// one superstep; the batch is retransmitted, costing extra comm time
	// and one extra latency round. Data is never lost — only time.
	MsgLoss Kind = "msgloss"
)

// Event is one scheduled fault.
type Event struct {
	Kind    Kind `json:"kind"`
	Step    int  `json:"step"`    // 0-based logical superstep
	Machine int  `json:"machine"` // target machine

	// Duration (Slow only) is how many supersteps the slowdown lasts;
	// 0 means 1.
	Duration int `json:"duration,omitempty"`
	// Factor (Slow only) multiplies compute time; must be >= 1.
	Factor float64 `json:"factor,omitempty"`
	// Frac (MsgLoss only) is the fraction of the batch lost, in (0, 1];
	// 0 means the whole batch.
	Frac float64 `json:"frac,omitempty"`
}

// Spec is a complete, replayable fault schedule.
type Spec struct {
	// SchemaVersion is Version; 0 is accepted on read and normalized.
	SchemaVersion int `json:"fault_schema_version"`
	// Policy is the crash recovery policy; "" means Rollback.
	Policy Policy `json:"policy,omitempty"`
	// CheckpointEvery checkpoints at the barrier of every Nth superstep;
	// 0 means the default of 4. Negative disables interval checkpoints
	// (crashes roll all the way back to the initial state).
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// Seed records the RandomSpec seed that generated this schedule, for
	// provenance; hand-written specs leave it 0.
	Seed uint64 `json:"seed,omitempty"`
	// Events is the schedule, kept sorted by (step, machine, kind).
	Events []Event `json:"events"`
}

// DefaultCheckpointEvery is the checkpoint interval used when the spec
// leaves CheckpointEvery at 0.
const DefaultCheckpointEvery = 4

// Normalize fills defaults and validates internal consistency. It must be
// called (directly or via NewController) before a spec is used.
func (s *Spec) Normalize() error {
	if s.SchemaVersion == 0 {
		s.SchemaVersion = Version
	}
	if s.SchemaVersion != Version {
		return fmt.Errorf("fault: spec schema version %d, this build reads %d", s.SchemaVersion, Version)
	}
	switch s.Policy {
	case "":
		s.Policy = Rollback
	case Rollback, Restream:
	default:
		return fmt.Errorf("fault: unknown policy %q", s.Policy)
	}
	if s.CheckpointEvery == 0 {
		s.CheckpointEvery = DefaultCheckpointEvery
	}
	for i := range s.Events {
		ev := &s.Events[i]
		if ev.Step < 0 {
			return fmt.Errorf("fault: event %d at negative step %d", i, ev.Step)
		}
		if ev.Machine < 0 {
			return fmt.Errorf("fault: event %d targets negative machine %d", i, ev.Machine)
		}
		switch ev.Kind {
		case Crash:
		case Slow:
			if ev.Duration == 0 {
				ev.Duration = 1
			}
			if ev.Duration < 0 {
				return fmt.Errorf("fault: slow event %d duration %d", i, ev.Duration)
			}
			if ev.Factor == 0 {
				ev.Factor = 2
			}
			if ev.Factor < 1 {
				return fmt.Errorf("fault: slow event %d factor %v, want >= 1", i, ev.Factor)
			}
		case MsgLoss:
			if ev.Frac == 0 {
				ev.Frac = 1
			}
			if ev.Frac < 0 || ev.Frac > 1 {
				return fmt.Errorf("fault: msgloss event %d frac %v, want (0,1]", i, ev.Frac)
			}
		default:
			return fmt.Errorf("fault: event %d has unknown kind %q", i, ev.Kind)
		}
	}
	sort.SliceStable(s.Events, func(a, b int) bool {
		ea, eb := s.Events[a], s.Events[b]
		if ea.Step != eb.Step {
			return ea.Step < eb.Step
		}
		if ea.Machine != eb.Machine {
			return ea.Machine < eb.Machine
		}
		return ea.Kind < eb.Kind
	})
	return nil
}

// Validate checks the schedule against a concrete cluster size. Restream
// needs at least one survivor, and a machine can only die once.
func (s *Spec) Validate(machines int) error {
	crashes := 0
	crashed := make(map[int]bool)
	for i, ev := range s.Events {
		if ev.Machine >= machines {
			return fmt.Errorf("fault: event %d targets machine %d of %d", i, ev.Machine, machines)
		}
		if ev.Kind == Crash {
			crashes++
			if s.Policy == Restream {
				if crashed[ev.Machine] {
					return fmt.Errorf("fault: machine %d crashes twice under restream", ev.Machine)
				}
				crashed[ev.Machine] = true
			}
		}
	}
	if s.Policy == Restream && crashes >= machines {
		return fmt.Errorf("fault: %d crashes leave no survivor among %d machines", crashes, machines)
	}
	return nil
}

// Clone returns a deep copy of the spec, so one parsed schedule can drive
// several controllers (each controller tracks consumed events per run, but
// Normalize mutates the spec it is handed).
func (s *Spec) Clone() *Spec {
	c := *s
	c.Events = append([]Event(nil), s.Events...)
	return &c
}

// ForMachines returns a clone with every event aimed at a machine the
// cluster does not have dropped — the best-effort projection of one
// schedule onto clusters of different sizes (a bench sweep over k).
func (s *Spec) ForMachines(machines int) *Spec {
	c := *s
	c.Events = nil
	for _, ev := range s.Events {
		if ev.Machine < machines {
			c.Events = append(c.Events, ev)
		}
	}
	return &c
}

// WriteJSON writes the spec as indented JSON.
func (s *Spec) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSpec parses and normalizes a spec.
func ReadSpec(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("fault: decode spec: %w", err)
	}
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	return &s, nil
}

// ReadSpecFile reads a spec from path.
func ReadSpecFile(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("fault: %w", err)
	}
	defer f.Close()
	s, err := ReadSpec(f)
	if err != nil {
		return nil, fmt.Errorf("fault: %s: %w", path, err)
	}
	return s, nil
}

// LoadSpec resolves the -fault / -checkpoint-every flag pair the CLIs
// share: the schedule at path, optionally with its checkpoint interval
// overridden (every != 0), or — with every alone — an empty schedule that
// measures pure checkpoint overhead. Neither set yields nil: no faults.
func LoadSpec(path string, every int) (*Spec, error) {
	var spec *Spec
	if path != "" {
		s, err := ReadSpecFile(path)
		if err != nil {
			return nil, err
		}
		spec = s
	} else if every != 0 {
		spec = &Spec{}
	}
	if spec != nil && every != 0 {
		spec.CheckpointEvery = every
	}
	return spec, nil
}

// RandomConfig parameterizes RandomSpec.
type RandomConfig struct {
	// Seed drives the xrand stream; the same config always yields the
	// same schedule.
	Seed uint64
	// Machines is the cluster size the schedule targets.
	Machines int
	// Horizon is how many supersteps the schedule covers.
	Horizon int
	// CrashProb, SlowProb and LossProb are per-superstep probabilities of
	// drawing each event kind.
	CrashProb, SlowProb, LossProb float64
	// MaxCrashes caps crash events; 0 means 1.
	MaxCrashes int
	// Policy and CheckpointEvery pass through to the spec (zero values
	// take the spec defaults).
	Policy          Policy
	CheckpointEvery int
}

// RandomSpec draws a replayable schedule. The draw order per superstep is
// fixed (slow, loss, crash) so a schedule is a pure function of the config.
func RandomSpec(cfg RandomConfig) (*Spec, error) {
	if cfg.Machines <= 0 {
		return nil, fmt.Errorf("fault: random spec for %d machines", cfg.Machines)
	}
	if cfg.Horizon <= 0 {
		return nil, fmt.Errorf("fault: random spec horizon %d", cfg.Horizon)
	}
	maxCrashes := cfg.MaxCrashes
	if maxCrashes == 0 {
		maxCrashes = 1
	}
	rng := xrand.New(cfg.Seed)
	s := &Spec{
		SchemaVersion:   Version,
		Policy:          cfg.Policy,
		CheckpointEvery: cfg.CheckpointEvery,
		Seed:            cfg.Seed,
	}
	crashes := 0
	crashed := make(map[int]bool)
	for step := 0; step < cfg.Horizon; step++ {
		if rng.Float64() < cfg.SlowProb {
			s.Events = append(s.Events, Event{
				Kind:     Slow,
				Step:     step,
				Machine:  rng.Intn(cfg.Machines),
				Duration: 1 + rng.Intn(3),
				Factor:   1.5 + 2.5*rng.Float64(),
			})
		}
		if rng.Float64() < cfg.LossProb {
			s.Events = append(s.Events, Event{
				Kind:    MsgLoss,
				Step:    step,
				Machine: rng.Intn(cfg.Machines),
				Frac:    0.25 + 0.75*rng.Float64(),
			})
		}
		if crashes < maxCrashes && rng.Float64() < cfg.CrashProb {
			m := rng.Intn(cfg.Machines)
			if !crashed[m] {
				crashed[m] = true
				crashes++
				s.Events = append(s.Events, Event{Kind: Crash, Step: step, Machine: m})
			}
		}
	}
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	if err := s.Validate(cfg.Machines); err != nil {
		return nil, err
	}
	return s, nil
}

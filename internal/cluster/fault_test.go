package cluster

import (
	"strings"
	"testing"

	"bpart/internal/telemetry"
)

// fixedDisrupter replays a queue of disruptions, one per FinishIteration.
type fixedDisrupter struct {
	queue []Disruption
}

func (f *fixedDisrupter) Disrupt() Disruption {
	if len(f.queue) == 0 {
		return Disruption{}
	}
	d := f.queue[0]
	f.queue = f.queue[1:]
	return d
}

func TestDisruptionSlowAndResend(t *testing.T) {
	model := CostModel{StepCost: 1, MessageCost: 2, Latency: 10}
	c, err := New([]int{0, 1}, 2, model)
	if err != nil {
		t.Fatal(err)
	}
	c.SetDisrupter(&fixedDisrupter{queue: []Disruption{
		{Slow: []float64{3, 0}, Resend: []float64{0, 0.5}, ExtraLatency: 7},
	}})
	w := c.NewCounters()
	w.Steps[0], w.Steps[1] = 10, 10
	w.Messages[0], w.Messages[1] = 4, 4
	st := c.FinishIteration(w)
	// Machine 0: compute 10×3=30; machine 1: compute 10, comm 8×1.5=12.
	if st.Compute[0] != 30 || st.Compute[1] != 10 {
		t.Fatalf("Compute = %v", st.Compute)
	}
	if st.Comm[0] != 8 || st.Comm[1] != 12 {
		t.Fatalf("Comm = %v", st.Comm)
	}
	// Time = maxCompute(30) + maxComm(12) + latency(10) + extra(7).
	if st.Time != 59 {
		t.Fatalf("Time = %v, want 59", st.Time)
	}
	// Second iteration: the queue is drained, no disruption.
	st = c.FinishIteration(w)
	if st.Compute[0] != 10 || st.Comm[1] != 8 || st.Time != 28 {
		t.Fatalf("undisrupted iteration: Compute=%v Comm=%v Time=%v", st.Compute, st.Comm, st.Time)
	}
}

func TestMarkDeadRequiresRehome(t *testing.T) {
	c := mustNew(t, []int{0, 1, 1}, 2)
	if err := c.MarkDead(1); err == nil {
		t.Fatal("MarkDead accepted a machine that still owns vertices")
	}
	if err := c.MarkDead(5); err == nil {
		t.Fatal("MarkDead accepted out-of-range machine")
	}
	if err := c.Rehome([]int{0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkDead(1); err != nil {
		t.Fatal(err)
	}
	if !c.Dead(1) || c.Dead(0) {
		t.Fatalf("Dead flags wrong: %v %v", c.Dead(0), c.Dead(1))
	}
	if c.LiveMachines() != 1 {
		t.Fatalf("LiveMachines = %d", c.LiveMachines())
	}
	// Rehoming back onto the dead machine must fail.
	if err := c.Rehome([]int{0, 1, 0}); err == nil {
		t.Fatal("Rehome onto dead machine accepted")
	}
	if err := c.Rehome([]int{0, 0}); err == nil {
		t.Fatal("Rehome with wrong vertex count accepted")
	}
}

func TestDeadMachineExcludedFromTiming(t *testing.T) {
	model := CostModel{StepCost: 1, MessageCost: 1, Latency: 5}
	c, err := New([]int{0, 0, 2}, 3, model)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Rehome([]int{0, 0, 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkDead(1); err != nil {
		t.Fatal(err)
	}
	w := c.NewCounters()
	w.Steps[0], w.Steps[2] = 8, 4
	// Stale counters on the dead machine must not leak into timing.
	w.Steps[1] = 1000
	st := c.FinishIteration(w)
	if st.Compute[1] != 0 || st.Waiting[1] != 0 {
		t.Fatalf("dead machine charged: compute=%v waiting=%v", st.Compute[1], st.Waiting[1])
	}
	if st.Time != 13 { // max(8,4) + 0 + 5
		t.Fatalf("Time = %v, want 13", st.Time)
	}
	if st.Waiting[2] != 4 {
		t.Fatalf("Waiting[2] = %v, want 4", st.Waiting[2])
	}
}

func TestChargePhase(t *testing.T) {
	model := CostModel{Latency: 5}
	c, err := New([]int{0, 1, 2}, 3, model)
	if err != nil {
		t.Fatal(err)
	}
	mem := telemetry.NewMemory()
	reg := telemetry.NewRegistry()
	c.SetTelemetry(mem, reg)
	st, err := c.ChargePhaseWork("checkpoint", []float64{10, 4, 0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Time != 15 {
		t.Fatalf("Time = %v, want 15", st.Time)
	}
	if st.Waiting[0] != 0 || st.Waiting[1] != 6 || st.Waiting[2] != 10 {
		t.Fatalf("Waiting = %v", st.Waiting)
	}
	if _, err := c.ChargePhaseWork("checkpoint", []float64{1}, nil); err == nil {
		t.Fatal("ChargePhaseWork accepted wrong busy length")
	}
	// The phase event must carry its kind so traces can separate recovery
	// barriers from algorithm supersteps.
	recs := mem.Records()
	if len(recs) != 1 || recs[0].Name != "cluster.superstep" {
		t.Fatalf("records = %+v", recs)
	}
	found := false
	for _, a := range recs[0].Attrs {
		if a.Key == "phase" {
			found = true
		}
	}
	if !found {
		t.Fatal("phase attr missing from ChargePhaseWork event")
	}
	if got := reg.Counter("cluster_supersteps_total").Value(); got != 1 {
		t.Fatalf("cluster_supersteps_total = %d", got)
	}
}

func TestChargePhaseDeadMachineZero(t *testing.T) {
	c := mustNew(t, []int{0, 0}, 2)
	if err := c.Rehome([]int{0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkDead(1); err != nil {
		t.Fatal(err)
	}
	st, err := c.ChargePhaseWork("restore", []float64{3, 99}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Compute[1] != 0 || st.Waiting[1] != 0 {
		t.Fatalf("dead machine charged in phase: %+v", st)
	}
	if st.Time != 3+c.Model().Latency {
		t.Fatalf("Time = %v", st.Time)
	}
}

func TestAssignmentIsCopy(t *testing.T) {
	c := mustNew(t, []int{0, 1}, 2)
	a := c.Assignment()
	a[0] = 1
	if c.Owner(0) != 0 {
		t.Fatal("Assignment returned an aliased slice")
	}
}

func TestDefaultCostModelHasCheckpointCost(t *testing.T) {
	if DefaultCostModel().CheckpointCost <= 0 {
		t.Fatal("DefaultCostModel.CheckpointCost must be positive")
	}
	// Sanity on relative magnitude: cheaper than a message, pricier than
	// an edge traversal — the docstring's contract.
	m := DefaultCostModel()
	if !(m.CheckpointCost < m.MessageCost && m.CheckpointCost > m.EdgeCost) {
		t.Fatalf("CheckpointCost %v out of expected band (%v, %v)", m.CheckpointCost, m.EdgeCost, m.MessageCost)
	}
}

func TestDisruptionDoesNotAffectWriteTimeline(t *testing.T) {
	// WriteTimeline should render disrupted runs like any other — a smoke
	// check that the header is intact and rows parse per machine.
	c := mustNew(t, []int{0, 1}, 2)
	c.SetDisrupter(&fixedDisrupter{queue: []Disruption{{ExtraLatency: 3}}})
	w := c.NewCounters()
	w.Steps[0] = 1
	var rs RunStats
	rs.Add(c.FinishIteration(w))
	var sb strings.Builder
	if err := rs.WriteTimeline(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("timeline lines = %d, want header + 2 machines", len(lines))
	}
}

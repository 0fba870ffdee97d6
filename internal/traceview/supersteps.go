package traceview

import (
	"fmt"

	"bpart/internal/cluster"
)

// Superstep is one decoded "cluster.superstep" event: the IterationStats
// the simulated cluster emitted for one BSP iteration, numbered and tagged
// with its phase. Work.Pairs is nil when Cluster.SetCommMatrix was off.
type Superstep struct {
	Iteration int
	Phase     string // "" or the fault controller's barrier: checkpoint, restore, restream
	cluster.IterationStats
}

// Supersteps decodes every cluster.superstep event in trace order. One
// with none of the per-machine arrays is a scalar-only copy (the laps of a
// resource log recorded before resource deltas rode on the trace's spans)
// and is skipped; one missing some of them is an error: the trace came
// from an incompatible writer, not PR-1's cluster.
func Supersteps(tr *Trace) ([]Superstep, error) {
	var out []Superstep
	for _, r := range tr.Events("cluster.superstep") {
		if scalarOnly(r) {
			continue
		}
		st, err := decodeSuperstep(r)
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

func scalarOnly(r *Record) bool {
	for _, key := range []string{"compute", "comm", "waiting", "steps", "edges", "vertices", "messages", "pairs"} {
		if _, ok := r.Attrs[key]; ok {
			return false
		}
	}
	return true
}

func decodeSuperstep(r *Record) (Superstep, error) {
	st := Superstep{}
	var ok bool
	if st.Iteration, ok = r.Int("iteration"); !ok {
		return st, fmt.Errorf("traceview: superstep record missing iteration attr")
	}
	machines, ok := r.Int("machines")
	if !ok {
		return st, fmt.Errorf("traceview: superstep %d missing machines attr", st.Iteration)
	}
	if st.Time, ok = r.Float("time_us"); !ok {
		return st, fmt.Errorf("traceview: superstep %d missing time_us attr", st.Iteration)
	}
	w := &st.Work
	for _, f := range []struct {
		key string
		dst *[]float64
	}{{"compute", &st.Compute}, {"comm", &st.Comm}, {"waiting", &st.Waiting}} {
		v, ok := r.Floats(f.key)
		if !ok || len(v) != machines {
			return st, fmt.Errorf("traceview: superstep %d: bad %s array (want %d machines)", st.Iteration, f.key, machines)
		}
		*f.dst = v
	}
	for _, f := range []struct {
		key string
		dst *[]int64
	}{{"steps", &w.Steps}, {"edges", &w.Edges}, {"vertices", &w.Vertices}, {"messages", &w.Messages}} {
		v, ok := r.Ints(f.key)
		if !ok || len(v) != machines {
			return st, fmt.Errorf("traceview: superstep %d: bad %s array (want %d machines)", st.Iteration, f.key, machines)
		}
		*f.dst = v
	}
	st.Phase, _ = r.Str("phase")
	// Present but malformed is a hard error: dropping it would skew commview.
	if raw, present := r.Attrs["pairs"]; present {
		if w.Pairs, ok = decodePairs(raw, machines); !ok {
			return st, fmt.Errorf("traceview: superstep %d: bad pairs matrix (want %d×%d numbers)", st.Iteration, machines, machines)
		}
	}
	return st, nil
}

// decodePairs converts the JSON-decoded pairs attr (an array of k arrays
// of k numbers) into a k×k matrix.
func decodePairs(raw any, k int) ([][]int64, bool) {
	rows, ok := raw.([]any)
	if !ok || len(rows) != k {
		return nil, false
	}
	out := make([][]int64, k)
	for i, row := range rows {
		if out[i], ok = ints(row); !ok || len(out[i]) != k {
			return nil, false
		}
	}
	return out, true
}

// GroupRuns splits a superstep stream into runs. The cluster numbers
// supersteps monotonically per Cluster instance, so a fresh engine (new
// experiment, new scheme) restarts or rewinds the iteration counter; a
// machine-count change likewise implies a different cluster.
func GroupRuns(steps []Superstep) [][]Superstep {
	var runs [][]Superstep
	for i, st := range steps {
		if i == 0 || st.Iteration <= steps[i-1].Iteration || len(st.Compute) != len(steps[i-1].Compute) {
			runs = append(runs, nil)
		}
		runs[len(runs)-1] = append(runs[len(runs)-1], st)
	}
	return runs
}

// Straggler attributes one superstep's two BSP phases: which machine
// bounded each barrier, and by how much.
type Straggler struct {
	Iteration int
	// ComputeMachine bounded the compute phase with ComputeUS of work;
	// every other machine waited for it. ComputeSlackUS is its lead over
	// the runner-up — the amount the barrier would shrink if only this
	// machine were faster.
	ComputeMachine int
	ComputeUS      float64
	ComputeSlackUS float64
	// The same attribution for the communication phase.
	CommMachine int
	CommUS      float64
	CommSlackUS float64
}

// Stragglers attributes every superstep of one run.
func Stragglers(run []Superstep) []Straggler {
	out := make([]Straggler, 0, len(run))
	for _, st := range run {
		s := Straggler{Iteration: st.Iteration}
		s.ComputeMachine, s.ComputeUS, s.ComputeSlackUS = argmaxSlack(st.Compute)
		s.CommMachine, s.CommUS, s.CommSlackUS = argmaxSlack(st.Comm)
		out = append(out, s)
	}
	return out
}

// argmaxSlack returns the index and value of the maximum and its lead over
// the second-largest value. Ties resolve to the lowest index, so reports
// are deterministic.
func argmaxSlack(xs []float64) (idx int, max, slack float64) {
	if len(xs) == 0 {
		return -1, 0, 0
	}
	second := 0.0
	for i, x := range xs {
		if i == 0 || x > max {
			if i > 0 {
				second = max
			}
			idx, max = i, x
		} else if i == 1 || x > second {
			second = x
		}
	}
	if len(xs) == 1 {
		return idx, max, 0
	}
	return idx, max, max - second
}

// WaitBreakdown decomposes the run's waiting-time ratio (the paper's
// Fig 13 metric) into per-machine contributions.
type WaitBreakdown struct {
	Machines    int
	Supersteps  int
	TotalTimeUS float64
	// WaitUS[i] is machine i's total barrier idle time.
	WaitUS []float64
	// Contribution[i] = WaitUS[i] / (TotalTimeUS · Machines). The terms
	// sum to WaitRatio exactly: the decomposition is a partition of the
	// wasted cluster capacity, not an approximation.
	Contribution []float64
	// WaitRatio = Σ WaitUS / (TotalTimeUS · Machines), matching
	// cluster.RunStats.WaitRatio for the same run.
	WaitRatio float64
}

// DecomposeWaitRatio computes the per-machine WaitRatio breakdown of one
// run. A run with zero machines, zero supersteps or zero total time has a
// zero breakdown, mirroring RunStats.WaitRatio's degenerate cases.
func DecomposeWaitRatio(run []Superstep) WaitBreakdown {
	if len(run) == 0 || len(run[0].Compute) == 0 {
		return WaitBreakdown{}
	}
	k := len(run[0].Compute)
	b := WaitBreakdown{
		Machines:     k,
		Supersteps:   len(run),
		WaitUS:       make([]float64, k),
		Contribution: make([]float64, k),
	}
	for _, st := range run {
		b.TotalTimeUS += st.Time
		for i, w := range st.Waiting {
			b.WaitUS[i] += w
		}
	}
	if b.TotalTimeUS == 0 {
		return b
	}
	capacity := b.TotalTimeUS * float64(k)
	for i, w := range b.WaitUS {
		b.Contribution[i] = w / capacity
		b.WaitRatio += b.Contribution[i]
	}
	return b
}

// CritSegment is one leg of a run's critical path.
type CritSegment struct {
	Iteration int
	Phase     string // "compute", "comm" or "latency"
	Machine   int    // -1 for latency (no machine is responsible)
	DurUS     float64
}

// CriticalPath is the chain of phase-bounding machines whose durations sum
// to the run's simulated wall time: per BSP iteration, the slowest
// machine's compute phase, the slowest machine's communication phase, and
// the fixed barrier latency. Shrinking anything off this path cannot speed
// the run up; the per-phase shares say which lever matters.
type CriticalPath struct {
	Segments  []CritSegment
	ComputeUS float64
	CommUS    float64
	LatencyUS float64
	TotalUS   float64
	// OnPathUS[i] is machine i's time on the critical path; the machine
	// with the largest share is the run's dominant straggler.
	OnPathUS []float64
}

// ComputeCriticalPath derives the critical path of one run: per iteration,
// the slowest machine's compute, the slowest machine's comm, and the rest
// of the iteration's time as barrier latency.
func ComputeCriticalPath(run []Superstep) CriticalPath {
	cp := CriticalPath{}
	if len(run) == 0 {
		return cp
	}
	cp.OnPathUS = make([]float64, len(run[0].Compute))
	for _, st := range run {
		cp.TotalUS += st.Time
		cm, cUS, _ := argmaxSlack(st.Compute)
		mm, mUS, _ := argmaxSlack(st.Comm)
		cp.add(st.Iteration, "compute", cm, cUS)
		cp.add(st.Iteration, "comm", mm, mUS)
		cp.add(st.Iteration, "latency", -1, st.Time-cUS-mUS)
	}
	return cp
}

func (cp *CriticalPath) add(iter int, phase string, machine int, dur float64) {
	if dur <= 0 {
		return
	}
	cp.Segments = append(cp.Segments, CritSegment{Iteration: iter, Phase: phase, Machine: machine, DurUS: dur})
	switch phase {
	case "compute":
		cp.ComputeUS += dur
	case "comm":
		cp.CommUS += dur
	default:
		cp.LatencyUS += dur
	}
	if machine >= 0 && machine < len(cp.OnPathUS) {
		cp.OnPathUS[machine] += dur
	}
}

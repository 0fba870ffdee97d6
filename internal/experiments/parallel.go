package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"

	"bpart/internal/engine"
	"bpart/internal/gen"
	"bpart/internal/resview"
	"bpart/internal/telemetry"
)

// The parallel speedup harness measures the engine-side half of ROADMAP
// item 1: real shared-memory parallel supersteps. Each iteration engine is
// run at every width of the worker ladder on the largest reference dataset
// and timed with telemetry.Stopwatch (the sanctioned wall-clock route
// inside the noclock boundary); every measured run is also marshaled and
// compared byte for byte against a 1-worker reference run, so each point
// doubles as a bit-identity proof. Wall columns are the only
// nondeterministic output: simulated times, counters and results are
// identical at every width by the kernel's determinism contract.

// parallelDataset is the speedup workload: friendster-sim, the largest
// reference preset (the acceptance dataset for the >1.5×-at-4-workers
// criterion).
const parallelDataset = gen.FriendsterSim

// benchParallelSchemes is the always-collected BENCH subset: the baseline
// scheme and BPart. The experiment table sweeps all of compareSchemes.
var benchParallelSchemes = []string{"Chunk-V", "BPart"}

// benchParallelWidths is the artifact section's fixed ladder. Unlike the
// experiment table (which honors -widths), the BENCH section keeps a
// host-independent ladder so the artifact's row set — and under
// -deterministic its bytes — never depends on -widths, -resources or
// -workers.
var benchParallelWidths = []int{1, 2, 4}

// parallelReps is the per-width repetition count; the recorded wall time is
// the fastest repetition (conventional best-of-N timing).
const parallelReps = 2

// widths returns the sweep's ladder, defaulting to a host-independent
// {1, 2, 4} so tests and baselines never depend on the machine's core
// count. cmd/bench fills the host ladder for real measurements.
func (o Options) widths() []int {
	if len(o.Widths) > 0 {
		return o.Widths
	}
	return []int{1, 2, 4}
}

// parallelEngines are the sweep's workloads, the two iteration
// applications.
var parallelEngines = []struct {
	name string
	run  iterRun
}{{"PageRank", pageRank}, {"CC", components}}

// runMarshaled runs one workload and returns its marshaled result (outputs
// + RunStats, the byte-identity evidence) and the run's simulated time.
func runMarshaled(run iterRun, e *engine.Engine) ([]byte, float64, error) {
	res, stats, err := run(e)
	if err != nil {
		return nil, 0, err
	}
	b, err := json.Marshal(res)
	return b, stats.TotalTime(), err
}

// ParallelMeasurement is one (engine, scheme, workers) point of the sweep.
type ParallelMeasurement struct {
	Engine  string
	Scheme  string
	Workers int
	// WallUS is the best-of-N host wall time; nondeterministic.
	WallUS float64
	// SimTimeUS is the run's simulated time — identical at every width.
	SimTimeUS float64
	// Identical reports that every repetition's marshaled results and
	// RunStats matched the 1-worker reference byte for byte.
	Identical bool
	// Speedup is the curve's 1-worker WallUS over this point's, and
	// Efficiency is Speedup per worker; both are 0 when the ladder has no
	// 1-worker point or a wall time is not positive.
	Speedup, Efficiency float64
}

// deriveSpeedups fills Speedup and Efficiency along one (engine, scheme)
// curve.
func deriveSpeedups(curve []ParallelMeasurement) {
	base := 0.0
	for _, m := range curve {
		if m.Workers == 1 {
			base = m.WallUS
		}
	}
	for i := range curve {
		if m := &curve[i]; base > 0 && m.WallUS > 0 {
			m.Speedup = base / m.WallUS
			m.Efficiency = m.Speedup / float64(m.Workers)
		}
	}
}

// runParallel sweeps engines × schemes × widths on parallelDataset.
// Engines are built quiet (no tracer or faults): the sweep
// re-runs each workload many times, and feeding those repetitions'
// supersteps into the run's trace or histograms would make every
// observability artifact depend on the ladder. The harness instead emits
// one resview ScalingPhase span per repetition to tr.
func runParallel(opt Options, tr telemetry.Tracer, schemes []string, widths []int) ([]ParallelMeasurement, error) {
	quiet := opt
	quiet.Tracer, quiet.Faults = nil, nil
	var out []ParallelMeasurement
	for _, scheme := range schemes {
		e, err := iterEngine(parallelDataset, quiet, scheme, benchPartitionK)
		if err != nil {
			return nil, fmt.Errorf("parallel speedup: %w", err)
		}
		for _, spec := range parallelEngines {
			// The 1-worker reference run: its bytes are the identity oracle
			// for every width (and it warms the graph/partition memos).
			e.Cluster().SetWorkers(1)
			ref, _, err := runMarshaled(spec.run, e)
			if err != nil {
				return nil, fmt.Errorf("parallel speedup: %s/%s reference: %w", spec.name, scheme, err)
			}
			for _, wk := range widths {
				if wk < 1 {
					return nil, fmt.Errorf("parallel speedup: width %d, want >= 1", wk)
				}
				e.Cluster().SetWorkers(wk)
				m := ParallelMeasurement{Engine: spec.name, Scheme: scheme, Workers: wk, WallUS: -1, Identical: true}
				for rep := 0; rep < parallelReps; rep++ {
					sp := tr.Span(resview.ScalingPhase,
						telemetry.String("scheme", spec.name+"/"+scheme),
						telemetry.Int("workers", wk))
					sw := telemetry.NewStopwatch()
					b, sim, err := runMarshaled(spec.run, e)
					us := sw.Seconds() * 1e6
					sp.End()
					if err != nil {
						return nil, fmt.Errorf("parallel speedup: %s/%s at %d workers: %w", spec.name, scheme, wk, err)
					}
					m.SimTimeUS = sim
					m.Identical = m.Identical && bytes.Equal(b, ref)
					if m.WallUS < 0 || us < m.WallUS {
						m.WallUS = us
					}
				}
				out = append(out, m)
			}
			deriveSpeedups(out[len(out)-len(widths):])
		}
	}
	return out, nil
}

// ParallelSpeedup measures every compare scheme's engines at every width of
// opt.widths() and tables the superstep speedup curve, every point
// verified bit-identical to the sequential run.
func ParallelSpeedup(opt Options) (*Table, error) {
	ms, err := runParallel(opt, telemetry.Safe(opt.Tracer), compareSchemes, opt.widths())
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "Parallel Speedup",
		Title:  "Parallel superstep scaling (friendster-sim, host wall-clock, outputs verified bit-identical)",
		Header: []string{"engine", "scheme", "workers", "wall", "speedup", "efficiency", "sim_time_us", "identical"},
	}
	for _, m := range ms {
		t.AddRow(m.Engine, m.Scheme, d0(m.Workers), fmt.Sprintf("%.2fms", m.WallUS/1e3),
			f2(m.Speedup), f2(m.Efficiency), f2(m.SimTimeUS), fmt.Sprintf("%t", m.Identical))
	}
	t.Notes = append(t.Notes,
		"wall-clock timings vary by host; the identical column proves every width's results and RunStats matched the 1-worker run byte for byte",
		"sim_time_us is the cost model's verdict and is identical at every width by construction",
		"acceptance tracks PageRank at 4 workers on this dataset against the >1.5x bar (meaningful only on hosts with >= 4 CPUs)")
	return t, nil
}

// CollectParallel fills the artifact's parallel section from one sweep
// over the BENCH scheme subset. The section is additive (omitempty) and
// its wall/speedup columns are the only nondeterministic fields; StripWallClock zeroes them, leaving the simulated times and the
// identity verdicts, which are independent of the ladder and of
// Options.Workers.
func (a *BenchArtifact) CollectParallel(opt Options) error {
	// The section's sweep is an internal fixed ladder; the logs' scaling
	// spans reflect the user-requested -widths ladder only, so this run is
	// untraced (the Parallel Speedup experiment emits the observable spans).
	ms, err := runParallel(opt, telemetry.Nop(), benchParallelSchemes, benchParallelWidths)
	if err != nil {
		return err
	}
	for _, m := range ms {
		a.Parallel = append(a.Parallel, BenchParallel{
			Graph:      string(parallelDataset),
			Engine:     m.Engine,
			Scheme:     m.Scheme,
			K:          benchPartitionK,
			Workers:    m.Workers,
			WallUS:     m.WallUS,
			Speedup:    m.Speedup,
			Efficiency: m.Efficiency,
			SimTimeUS:  m.SimTimeUS,
			Identical:  m.Identical,
		})
	}
	return nil
}

package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"bpart/internal/cluster"
	"bpart/internal/fault"
	"bpart/internal/gen"
	"bpart/internal/telemetry"
	"bpart/internal/walk"
)

// BenchSchemaVersion is the BENCH_bpart.json schema version. Bump it on
// any incompatible field change; consumers must check it before trusting
// field meanings. The schema itself is documented in EXPERIMENTS.md.
const BenchSchemaVersion = 1

// BenchExperiment is one experiment's entry in the artifact. Wall-clock
// seconds vary run to run; everything else is deterministic at a fixed
// scale.
type BenchExperiment struct {
	ID          string  `json:"id"`
	WallSeconds float64 `json:"wall_seconds"`
	Rows        int     `json:"rows"`
	Error       string  `json:"error,omitempty"`
}

// BenchPartition is one (graph, scheme, k) cell of the artifact's
// canonical comparison workload: partition quality plus the simulated
// runtime of a fixed short walk. All fields are deterministic, so two
// artifacts at the same scale are directly diffable.
type BenchPartition struct {
	Graph      string  `json:"graph"`
	Scheme     string  `json:"scheme"`
	K          int     `json:"k"`
	VertexBias float64 `json:"vertex_bias"`
	EdgeBias   float64 `json:"edge_bias"`
	VertexJain float64 `json:"vertex_jain"`
	EdgeJain   float64 `json:"edge_jain"`
	CutRatio   float64 `json:"cut_ratio"`
	SimTimeUS  float64 `json:"sim_time_us"`
	WaitRatio  float64 `json:"wait_ratio"`
}

// BenchRecovery is one (scheme, policy) cell of the artifact's optional
// fault-recovery section (bench -fault): the canonical PageRank workload
// re-run under a crash schedule, with the recovery overhead broken out.
// All fields are deterministic, so the section diffs like the rest.
type BenchRecovery struct {
	Graph  string `json:"graph"`
	Scheme string `json:"scheme"`
	K      int    `json:"k"`
	Policy string `json:"policy"`
	// SimTimeUS is the faulty run's total simulated time;
	// FaultFreeSimTimeUS is the same workload without the schedule, so
	// the difference is what the faults and their recovery cost.
	SimTimeUS          float64 `json:"sim_time_us"`
	FaultFreeSimTimeUS float64 `json:"fault_free_sim_time_us"`
	fault.RecoveryStats
}

// BenchComm is one (graph, scheme, k) cell of the artifact's
// communication-topology section: the canonical walk workload re-read
// through the src→dst comm matrix (matrix capture on). Capture is
// observation-only, so the Partitions section's numbers are unaffected;
// every field here is deterministic.
type BenchComm struct {
	Graph          string  `json:"graph"`
	Scheme         string  `json:"scheme"`
	K              int     `json:"k"`
	Messages       int64   `json:"messages"`
	ImbalanceRatio float64 `json:"imbalance_ratio"`
	PairJain       float64 `json:"pair_jain"`
	HotSrc         int     `json:"hot_src"`
	HotDst         int     `json:"hot_dst"`
	// HotShare is the hot pair's fraction of all cross-machine messages
	// (1/(k²-k) when perfectly flat).
	HotShare float64 `json:"hot_share"`
}

// BenchArtifact is the machine-readable benchmark record cmd/bench writes
// (BENCH_bpart.json). Fields marshal in declaration order, so the output
// is byte-deterministic given identical contents. Recovery is additive
// (schema version 1 either way): it is present exactly when the run
// injected a fault schedule.
type BenchArtifact struct {
	SchemaVersion int                          `json:"schema_version"`
	Scale         float64                      `json:"scale"`
	Walkers       int                          `json:"walkers,omitempty"`
	Experiments   []BenchExperiment            `json:"experiments"`
	Partitions    []BenchPartition             `json:"partitions"`
	Recovery      []BenchRecovery              `json:"recovery,omitempty"`
	Comm          []BenchComm                  `json:"comm"`
	Serving       []BenchServing               `json:"serving"`
	Histograms    []telemetry.HistogramSummary `json:"histograms"`
}

// NewBenchArtifact starts an artifact for one bench invocation.
func NewBenchArtifact(opt Options) *BenchArtifact {
	return &BenchArtifact{
		SchemaVersion: BenchSchemaVersion,
		Scale:         opt.scale(),
		Walkers:       opt.Walkers,
		Experiments:   []BenchExperiment{},
		Partitions:    []BenchPartition{},
		Comm:          []BenchComm{},
		Serving:       []BenchServing{},
		Histograms:    []telemetry.HistogramSummary{},
	}
}

// RecordExperiment appends one experiment outcome in run order.
func (a *BenchArtifact) RecordExperiment(id string, wallSeconds float64, rows int, runErr error) {
	e := BenchExperiment{ID: id, WallSeconds: wallSeconds, Rows: rows}
	if runErr != nil {
		e.Error = runErr.Error()
	}
	a.Experiments = append(a.Experiments, e)
}

// benchPartitionK is the canonical workload's machine count — the paper's
// default cluster size in Fig 12/13.
const benchPartitionK = 8

// benchWalkConfig is the canonical workload's walk: short, seeded, and
// identical across runs, so its SimTimeUS/WaitRatio columns are
// regression-comparable.
var benchWalkConfig = walk.Config{Kind: walk.Simple, WalkersPerVertex: 1, Steps: 4, Seed: 1}

// Collect fills the deterministic sections: the canonical partition
// comparison (every scheme on the LJ-sim dataset, always fault-free so the
// section stays regression-diffable across runs with and without -fault),
// the fault-recovery comparison when opt.Faults is set, the serving
// comparison (the canonical Zipf request stream replayed per scheme), and,
// when hist (teed into opt.Tracer) is non-nil, its histogram summaries.
func (a *BenchArtifact) Collect(opt Options, hist *HistogramSink) error {
	d := gen.LJSim
	base := opt
	base.Faults = nil
	for _, scheme := range allSchemes {
		rep, err := report(d, base, scheme, benchPartitionK)
		if err != nil {
			return fmt.Errorf("bench artifact: %w", err)
		}
		e, err := walkEngine(d, base, scheme, benchPartitionK, cluster.DefaultCostModel())
		if err != nil {
			return fmt.Errorf("bench artifact: %w", err)
		}
		// Capture the comm matrix on the same run: observation-only, so the
		// partition section's timings are unchanged (the comm_* histograms
		// appear additively in the Histograms section).
		e.Cluster().SetCommMatrix(true)
		res, err := e.Run(benchWalkConfig)
		if err != nil {
			return fmt.Errorf("bench artifact: %s walk: %w", scheme, err)
		}
		a.Partitions = append(a.Partitions, BenchPartition{
			Graph:      string(d),
			Scheme:     scheme,
			K:          benchPartitionK,
			VertexBias: rep.VertexBias,
			EdgeBias:   rep.EdgeBias,
			VertexJain: rep.VertexJain,
			EdgeJain:   rep.EdgeJain,
			CutRatio:   rep.CutRatio,
			SimTimeUS:  res.Stats.TotalTime(),
			WaitRatio:  res.Stats.WaitRatio(),
		})
		s, hotShare := commSummary(&res.Stats)
		a.Comm = append(a.Comm, BenchComm{
			Graph:          string(d),
			Scheme:         scheme,
			K:              benchPartitionK,
			Messages:       s.Messages,
			ImbalanceRatio: s.ImbalanceRatio,
			PairJain:       s.PairJain,
			HotSrc:         s.HotSrc,
			HotDst:         s.HotDst,
			HotShare:       hotShare,
		})
	}
	if opt.Faults != nil {
		if err := a.collectRecovery(d, opt); err != nil {
			return err
		}
	}
	if err := a.collectServing(d, base); err != nil {
		return err
	}
	if hist != nil {
		a.Histograms = hist.Summaries()
	}
	return nil
}

// collectRecovery runs the canonical PageRank workload per scheme under
// opt.Faults and records RecoveryStats next to the fault-free simulated
// time (the Fault Recovery experiment covers the policy cross-product;
// this section tracks the schedule exactly as supplied).
func (a *BenchArtifact) collectRecovery(d gen.Dataset, opt Options) error {
	spec := opt.Faults.ForMachines(benchPartitionK)
	base := opt
	base.Faults = nil
	for _, scheme := range allSchemes {
		free, err := recoveryPageRank(d, base, scheme, nil)
		if err != nil {
			return fmt.Errorf("bench artifact: %w", err)
		}
		ps := spec.Clone() // normalized by its controller: Policy is filled in
		res, err := recoveryPageRank(d, base, scheme, ps)
		if err != nil {
			return fmt.Errorf("bench artifact: %w", err)
		}
		a.Recovery = append(a.Recovery, BenchRecovery{
			Graph:              string(d),
			Scheme:             scheme,
			K:                  benchPartitionK,
			Policy:             string(ps.Policy),
			SimTimeUS:          res.Stats.TotalTime(),
			FaultFreeSimTimeUS: free.Stats.TotalTime(),
			RecoveryStats:      *res.Recovery,
		})
	}
	return nil
}

// StripWallClock zeroes every wall-clock field (bench -deterministic):
// experiment wall seconds and serving latency percentiles are the
// artifact's only nondeterministic content, so a stripped artifact is
// byte-identical across runs with the same flags — including across
// -workers settings, since every engine output is worker-invariant.
func (a *BenchArtifact) StripWallClock() {
	for i := range a.Experiments {
		a.Experiments[i].WallSeconds = 0
	}
	for i := range a.Serving {
		for j := range a.Serving[i].Endpoints {
			e := &a.Serving[i].Endpoints[j]
			e.P50US, e.P95US, e.P99US, e.P999US = 0, 0, 0, 0
		}
	}
}

// WriteJSON marshals the artifact (indented, trailing newline).
func (a *BenchArtifact) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteFile writes the artifact to path.
func (a *BenchArtifact) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := a.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadBenchArtifact parses a BENCH_bpart.json file, rejecting unknown
// schema versions.
func ReadBenchArtifact(r io.Reader) (*BenchArtifact, error) {
	var a BenchArtifact
	dec := json.NewDecoder(r)
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("bench artifact: %w", err)
	}
	if a.SchemaVersion != BenchSchemaVersion {
		return nil, fmt.Errorf("bench artifact: schema version %d, this reader handles %d", a.SchemaVersion, BenchSchemaVersion)
	}
	return &a, nil
}

package bpart

import (
	"io"
	"os"
	"slices"
	"strconv"
	"testing"

	"bpart/internal/experiments"
)

// benchScale controls the dataset size the experiment benchmarks run at.
// The default 0.05 keeps `go test -bench=.` to a few minutes; set
// BPART_BENCH_SCALE=1.0 to benchmark at the full EXPERIMENTS.md size.
func benchScale() float64 {
	if s := os.Getenv("BPART_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.05
}

// benchExperiment runs one paper table/figure per iteration. The first
// iteration pays the dataset/partition generation; later iterations hit the
// memoized graphs, so allocations reported are the experiment's own.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	all := experiments.All()
	at := slices.IndexFunc(all, func(e experiments.Experiment) bool { return e.ID == id })
	if at < 0 {
		b.Fatalf("no experiment %q", id)
	}
	opt := experiments.Options{Scale: benchScale()}
	for i := 0; i < b.N; i++ {
		tbl, err := all[at].Run(opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

// One benchmark per table and figure of the paper's evaluation.

func BenchmarkFig03(b *testing.B)        { benchExperiment(b, "Fig 3") }
func BenchmarkFig04(b *testing.B)        { benchExperiment(b, "Fig 4") }
func BenchmarkFig05(b *testing.B)        { benchExperiment(b, "Fig 5") }
func BenchmarkFig06(b *testing.B)        { benchExperiment(b, "Fig 6") }
func BenchmarkFig08(b *testing.B)        { benchExperiment(b, "Fig 8") }
func BenchmarkFig10(b *testing.B)        { benchExperiment(b, "Fig 10") }
func BenchmarkFig11(b *testing.B)        { benchExperiment(b, "Fig 11") }
func BenchmarkTable1(b *testing.B)       { benchExperiment(b, "Table 1") }
func BenchmarkTable2(b *testing.B)       { benchExperiment(b, "Table 2") }
func BenchmarkMtKaHIP(b *testing.B)      { benchExperiment(b, "S4.2 Mt-KaHIP") }
func BenchmarkConnectivity(b *testing.B) { benchExperiment(b, "S3.3 Connectivity") }
func BenchmarkFig12(b *testing.B)        { benchExperiment(b, "Fig 12") }
func BenchmarkFig13(b *testing.B)        { benchExperiment(b, "Fig 13") }
func BenchmarkFig14(b *testing.B)        { benchExperiment(b, "Fig 14") }
func BenchmarkTable3(b *testing.B)       { benchExperiment(b, "Table 3") }
func BenchmarkFig15(b *testing.B)        { benchExperiment(b, "Fig 15") }

func BenchmarkRelatedWork(b *testing.B) { benchExperiment(b, "S5 Related") }
func BenchmarkVertexCut(b *testing.B)   { benchExperiment(b, "S5 Vertex-cut") }

// Ablation benches for the design choices DESIGN.md calls out.

func BenchmarkAblationC(b *testing.B)      { benchExperiment(b, "Ablation C") }
func BenchmarkAblationSplit(b *testing.B)  { benchExperiment(b, "Ablation Split") }
func BenchmarkAblationLayers(b *testing.B) { benchExperiment(b, "Ablation Refine") }
func BenchmarkAblationOrder(b *testing.B)  { benchExperiment(b, "Ablation Order") }
func BenchmarkAblationHetero(b *testing.B) { benchExperiment(b, "Ablation Hetero") }

// Core-operation benchmarks: the partitioners themselves on twitter-sim.

func benchPartition(b *testing.B, scheme string, k int) {
	b.Helper()
	g, err := Preset(TwitterSim, benchScale())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Partition(g, scheme, k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionChunkV(b *testing.B)     { benchPartition(b, "Chunk-V", 8) }
func BenchmarkPartitionChunkE(b *testing.B)     { benchPartition(b, "Chunk-E", 8) }
func BenchmarkPartitionHash(b *testing.B)       { benchPartition(b, "Hash", 8) }
func BenchmarkPartitionFennel(b *testing.B)     { benchPartition(b, "Fennel", 8) }
func BenchmarkPartitionBPart(b *testing.B)      { benchPartition(b, "BPart", 8) }
func BenchmarkPartitionBPart128(b *testing.B)   { benchPartition(b, "BPart", 128) }
func BenchmarkPartitionMultilevel(b *testing.B) { benchPartition(b, "Multilevel", 8) }

// Telemetry overhead: BPart with the default no-op tracer explicitly
// attached, against the uninstrumented BenchmarkPartitionBPart above. A
// wall-clock reference with no gate; TestDisabledTelemetryIsFree gates the
// disabled path by call and allocation counts. Compare with:
//
//	go test -bench 'PartitionBPart$|PartitionTracedNop' -count 10 .
func BenchmarkPartitionTracedNop(b *testing.B) {
	g, err := Preset(TwitterSim, benchScale())
	if err != nil {
		b.Fatal(err)
	}
	p, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	if !Instrument(p, NopTrace(), nil) {
		b.Fatal("BPart did not accept instrumentation")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Partition(g, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// Audit overhead: BPart with the audit hooks compiled in but no Auditor
// attached (the default), against BenchmarkPartitionBPart — the
// disabled-audit cost is one nil check per placement. A wall-clock
// reference with no gate; TestDisabledTelemetryIsFree counts a detached
// auditor's calls and allocations. Compare with:
//
//	go test -bench 'PartitionBPart$|PartitionAuditNop' -count 10 .
func BenchmarkPartitionAuditNop(b *testing.B) {
	g, err := Preset(TwitterSim, benchScale())
	if err != nil {
		b.Fatal(err)
	}
	p, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	if !Audit(p, nil) {
		b.Fatal("BPart did not accept the audit sink")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Partition(g, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// And the live-audit cost (every record marshaled and discarded), for
// reference rather than as a gate.
func BenchmarkPartitionAudited(b *testing.B) {
	g, err := Preset(TwitterSim, benchScale())
	if err != nil {
		b.Fatal(err)
	}
	p, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	aud, err := NewAuditor(io.Discard, AuditConfig{})
	if err != nil {
		b.Fatal(err)
	}
	if !Audit(p, aud) {
		b.Fatal("BPart did not accept the audit sink")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Partition(g, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// Fault-hook overhead: the iteration engine with no controller attached
// (the default) versus one with an idle controller — empty schedule,
// interval checkpoints disabled — so only the per-superstep protocol
// branches (Disrupt consultation, fault.Run's end-of-superstep
// bookkeeping, the one free initial snapshot) run. A reference number
// with no gate. Compare with:
//
//	go test -bench 'PageRankPlain|PageRankFaultIdle' -count 10 .
func benchPageRank(b *testing.B, withIdleFaults bool) {
	b.Helper()
	g, err := Preset(TwitterSim, benchScale())
	if err != nil {
		b.Fatal(err)
	}
	a, err := Partition(g, "Chunk-V", 8)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewIterationEngine(g, a, DefaultCostModel())
	if err != nil {
		b.Fatal(err)
	}
	if withIdleFaults {
		// CheckpointEvery -1 disables interval checkpoints; no events means
		// nothing ever fires.
		if _, err := EnableFaults(e, &FaultSpec{CheckpointEvery: -1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.PageRank(10, 0.85); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPageRankPlain(b *testing.B)     { benchPageRank(b, false) }
func BenchmarkPageRankFaultIdle(b *testing.B) { benchPageRank(b, true) }

// Comm-matrix overhead: the engines' hot loops carry a per-message
// `prow != nil` branch for the src→dst matrix. With capture off (the
// default) the matrix is never allocated; the CommOn variant is the live
// capture cost. Both are reference numbers with no gate. Compare with:
//
//	go test -bench 'PageRankCommOff|PageRankCommOn' -count 10 .
func benchPageRankComm(b *testing.B, capture bool) {
	b.Helper()
	g, err := Preset(TwitterSim, benchScale())
	if err != nil {
		b.Fatal(err)
	}
	a, err := Partition(g, "Chunk-V", 8)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewIterationEngine(g, a, DefaultCostModel())
	if err != nil {
		b.Fatal(err)
	}
	e.Cluster().SetCommMatrix(capture)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.PageRank(10, 0.85); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPageRankCommOff(b *testing.B) { benchPageRankComm(b, false) }
func BenchmarkPageRankCommOn(b *testing.B)  { benchPageRankComm(b, true) }

func BenchmarkCommMatrix(b *testing.B) { benchExperiment(b, "Comm Matrix") }

// And the live recovery cost (crash mid-run, rollback, replay), for
// reference rather than as a gate.
func BenchmarkPageRankRecovered(b *testing.B) {
	g, err := Preset(TwitterSim, benchScale())
	if err != nil {
		b.Fatal(err)
	}
	a, err := Partition(g, "Chunk-V", 8)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewIterationEngine(g, a, DefaultCostModel())
	if err != nil {
		b.Fatal(err)
	}
	spec := &FaultSpec{
		CheckpointEvery: 2,
		Events:          []FaultEvent{{Kind: CrashFault, Step: 5, Machine: 1}},
	}
	if _, err := EnableFaults(e, spec); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.PageRank(10, 0.85); err != nil {
			b.Fatal(err)
		}
	}
}

// And the fully-instrumented cost (memory tracer + live registry), for
// reference rather than as a gate.
func BenchmarkPartitionTracedMemory(b *testing.B) {
	g, err := Preset(TwitterSim, benchScale())
	if err != nil {
		b.Fatal(err)
	}
	p, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	tr := NewMemoryTrace()
	Instrument(p, tr, NewMetrics())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Partition(g, 8); err != nil {
			b.Fatal(err)
		}
		tr.Reset()
	}
}

// Package bpart is a Go implementation of BPart — the two-dimensional
// balanced graph partitioning scheme of "Towards Fast Large-scale Graph
// Analysis via Two-dimensional Balanced Partitioning" (ICPP 2022) —
// together with everything needed to reproduce the paper's evaluation:
// the baseline partitioners (Chunk-V, Chunk-E, Fennel, Hash, and an
// offline multilevel partitioner in the style of Mt-KaHIP), scale-free
// graph generators, a simulated BSP cluster, a Gemini-like iteration
// engine (PageRank, Connected Components, BFS) and a KnightKing-like
// random-walk engine (PPR, RWJ, RWD, DeepWalk, node2vec).
//
// This file is the public facade: thin aliases and constructors over the
// internal packages, so that examples and downstream users program against
// one import. It holds the library — graphs, partitioners, engines, walks
// and the telemetry and fault hooks they accept — and nothing of
// the tools built on it: the benchmark harness behind EXPERIMENTS.md is
// cmd/bench, the serving daemon cmd/bpartd, and the log readers
// cmd/tracestat.
package bpart

import (
	"fmt"
	"io"
	"net/http"

	"bpart/internal/cluster"
	"bpart/internal/core"
	"bpart/internal/embed"
	"bpart/internal/engine"
	"bpart/internal/fault"
	"bpart/internal/gen"
	"bpart/internal/gio"
	"bpart/internal/graph"
	"bpart/internal/metrics"
	_ "bpart/internal/multilevel" // registers "Multilevel" with partition.Get
	"bpart/internal/partition"
	"bpart/internal/telemetry"
	"bpart/internal/vcut"
	"bpart/internal/walk"
)

// ---- graphs ----

// Graph is an immutable CSR directed graph.
type Graph = graph.Graph

// Builder incrementally assembles a Graph.
type Builder = graph.Builder

// Edge is a directed arc.
type Edge = graph.Edge

// VertexID identifies a vertex.
type VertexID = graph.VertexID

// GraphStats summarizes a graph's degree structure.
type GraphStats = graph.Stats

// NewBuilder returns a graph builder for n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// FromEdges builds a graph from an edge list.
func FromEdges(n int, edges []Edge) *Graph { return graph.FromEdges(n, edges) }

// FromAdjacency builds a graph from adjacency lists.
func FromAdjacency(adj [][]VertexID) *Graph { return graph.FromAdjacency(adj) }

// Stats computes degree statistics.
func Stats(g *Graph) GraphStats { return graph.ComputeStats(g) }

// ReadGraphFile loads a graph from disk (".bg" binary, else edge-list text).
func ReadGraphFile(path string) (*Graph, error) { return gio.ReadFile(path) }

// WriteGraphFile saves a graph to disk (format chosen by extension).
func WriteGraphFile(path string, g *Graph) error { return gio.WriteFile(path, g) }

// WriteAssignmentFile persists a partition assignment (text, one part per
// vertex) so a partition computed once in preprocessing can be reused by
// every later analytics job.
func WriteAssignmentFile(path string, a *Assignment) error {
	return gio.WriteAssignmentFile(path, a.Parts, a.K)
}

// ReadAssignmentFile loads a persisted partition assignment.
func ReadAssignmentFile(path string) (*Assignment, error) {
	parts, k, err := gio.ReadAssignmentFile(path)
	if err != nil {
		return nil, err
	}
	return &Assignment{Parts: parts, K: k}, nil
}

// ---- generators ----

// GenConfig parameterizes the scale-free Chung–Lu generator.
type GenConfig = gen.Config

// Dataset names a synthetic stand-in for one of the paper's graphs.
type Dataset = gen.Dataset

// The synthetic stand-ins for the paper's Table 1 datasets.
const (
	LJSim         = gen.LJSim
	TwitterSim    = gen.TwitterSim
	FriendsterSim = gen.FriendsterSim
)

// Generate produces a scale-free graph from cfg.
func Generate(cfg GenConfig) (*Graph, error) { return gen.ChungLu(cfg) }

// Preset generates a named dataset at the given scale (1.0 = the default
// experiment size).
func Preset(d Dataset, scale float64) (*Graph, error) { return gen.Preset(d, scale) }

// Datasets lists the preset names.
func Datasets() []Dataset { return gen.Datasets() }

// ---- partitioning ----

// Assignment maps each vertex to a part.
type Assignment = partition.Assignment

// Partitioner is a named partitioning scheme.
type Partitioner = partition.Partitioner

// Config is BPart's configuration (weighting factor c, balance threshold ε,
// over-split factor, refine switch).
type Config = core.Config

// BPart is the two-dimensional balanced partitioner.
type BPart = core.BPart

// Trace records what each BPart layer did.
type Trace = core.Trace

// DefaultConfig returns the paper's default BPart configuration.
func DefaultConfig() Config { return core.Default() }

// New returns a BPart partitioner; the zero Config selects the defaults.
func New(cfg Config) (*BPart, error) { return core.New(cfg) }

// Schemes lists every registered partitioning scheme ("BPart", "Chunk-V",
// "Chunk-E", "Fennel", "Hash", "Multilevel").
func Schemes() []string { return partition.Names() }

// Partition splits g into k parts using the named scheme.
func Partition(g *Graph, scheme string, k int) (*Assignment, error) {
	p, err := partition.Get(scheme)
	if err != nil {
		return nil, err
	}
	return p.Partition(g, k)
}

// NewScheme returns a fresh instance of the named partitioning scheme, so
// that a caller can Instrument it before partitioning.
func NewScheme(scheme string) (Partitioner, error) { return partition.Get(scheme) }

// ---- telemetry ----

// Tracer receives structured span/event records from instrumented
// components. Use NewJSONLTrace for a persistent trace, NewMemoryTrace for
// tests, NopTrace to disable.
type Tracer = telemetry.Tracer

// TraceRecord is one finished span or event.
type TraceRecord = telemetry.Record

// Metrics is a named counter/gauge registry with a Prometheus-style text
// exporter and an expvar-compatible snapshot; as a Tracer it folds a trace.
type Metrics = telemetry.Registry

// MemoryTracer buffers records in memory (tests, ad-hoc inspection).
type MemoryTracer = telemetry.Memory

// JSONLTracer streams records as JSON lines to a writer; each span record
// carries its runtime resource deltas as res_* attrs.
type JSONLTracer = telemetry.JSONL

// TraceAttr is one key/value annotation on a span or event.
type TraceAttr = telemetry.Attr

// TraceString makes a string-valued annotation.
func TraceString(key, v string) TraceAttr { return telemetry.String(key, v) }

// TraceInt makes an integer-valued annotation.
func TraceInt(key string, v int) TraceAttr { return telemetry.Int(key, v) }

// TraceFloat makes a float-valued annotation.
func TraceFloat(key string, v float64) TraceAttr { return telemetry.Float(key, v) }

// NopTrace returns the no-op tracer (the default on every component).
func NopTrace() Tracer { return telemetry.Nop() }

// NewMemoryTrace returns a tracer that buffers records in memory.
func NewMemoryTrace() *MemoryTracer { return telemetry.NewMemory() }

// NewJSONLTrace returns a tracer that appends one JSON line per record to
// w. Call Flush (or Close) when done.
func NewJSONLTrace(w io.Writer) *JSONLTracer { return telemetry.NewJSONL(w) }

// TeeTrace returns a tracer forwarding every span and event to each of
// tracers in order — how one Instrument call feeds both a JSONL trace and
// a Metrics registry. nil and disabled tracers are dropped; none left is the
// no-op tracer.
func TeeTrace(tracers ...Tracer) Tracer { return telemetry.Tee(tracers...) }

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return telemetry.NewRegistry() }

// Instrument attaches a tracer and metrics registry to any component that
// supports telemetry (BPart, IterationEngine, WalkEngine, and the scheme
// instances returned by NewScheme when they are BPart, Fennel, LDG or
// Multilevel). It reports whether the component accepted the
// instrumentation. An enabled tracer on BPart, Fennel or LDG also receives
// the partition decision audit as audit.* events (tracestat explain,
// timeline, combine).
func Instrument(component any, tr Tracer, m *Metrics) bool {
	in, ok := component.(telemetry.Instrumentable)
	if !ok {
		return false
	}
	in.SetTelemetry(tr, m)
	return true
}

// DebugMux returns an http.ServeMux serving /debug/pprof/* profiles,
// /metrics (Prometheus text) and /debug/vars (expvar JSON) for the given
// registry — mount it behind a diagnostics listener.
func DebugMux(m *Metrics) *http.ServeMux { return telemetry.DebugMux(m) }

// ---- vertex-cut partitioning (the §5 alternative family) ----

// EdgeAssignment maps every arc to a part; vertices whose arcs span parts
// are replicated.
type EdgeAssignment = vcut.EdgeAssignment

// VertexCutPartitioner is a vertex-cut (edge-assignment) scheme.
type VertexCutPartitioner = vcut.Partitioner

// VertexCutReport summarizes a vertex-cut partitioning: per-part edge
// counts and the replication factor.
type VertexCutReport = vcut.Report

// Vertex-cut schemes. All constructors return pointers so Instrument can
// attach telemetry (SetTelemetry has a pointer receiver).
var (
	// NewRandomEdgeCut hashes each edge to a part.
	NewRandomEdgeCut = func() VertexCutPartitioner { return &vcut.RandomEdge{} }
	// NewDBH hashes each edge on its lower-degree endpoint.
	NewDBH = func() VertexCutPartitioner { return &vcut.DBH{} }
	// NewGreedyCut is PowerGraph's streaming placement.
	NewGreedyCut = func() VertexCutPartitioner { return &vcut.Greedy{} }
	// NewHDRF is High-Degree Replicated First.
	NewHDRF = func() VertexCutPartitioner { return &vcut.HDRF{} }
)

// EvaluateVertexCut computes the quality report of an edge assignment.
func EvaluateVertexCut(g *Graph, a *EdgeAssignment) (VertexCutReport, error) {
	if err := a.Validate(g); err != nil {
		return VertexCutReport{}, err
	}
	return vcut.NewReport(g, a), nil
}

// ---- quality metrics ----

// Report summarizes partition quality: per-dimension balance (bias and
// Jain's fairness) and the edge-cut ratio.
type Report = metrics.Report

// Evaluate computes the quality Report of an assignment.
func Evaluate(g *Graph, a *Assignment) (Report, error) {
	if err := a.Validate(g); err != nil {
		return Report{}, err
	}
	return metrics.NewReport(g, a.Parts, a.K, false), nil
}

// ---- simulated distributed execution ----

// CostModel holds the simulated cluster's unit costs.
type CostModel = cluster.CostModel

// RunStats aggregates per-iteration BSP timing.
type RunStats = cluster.RunStats

// DefaultCostModel approximates the paper's testbed ratios.
func DefaultCostModel() CostModel { return cluster.DefaultCostModel() }

// IterationEngine is the Gemini-like vertex-centric BSP engine.
type IterationEngine = engine.Engine

// PageRankResult is the outcome of a PageRank run.
type PageRankResult = engine.PRResult

// ComponentsResult is the outcome of a Connected Components run.
type ComponentsResult = engine.CCResult

// BFSResult is the outcome of a BFS run.
type BFSResult = engine.BFSResult

// SSSPResult is the outcome of a single-source shortest paths run.
type SSSPResult = engine.SSSPResult

// KCoreResult is the outcome of a k-core decomposition run.
type KCoreResult = engine.KCoreResult

// NewIterationEngine places g on a simulated cluster per the assignment.
func NewIterationEngine(g *Graph, a *Assignment, model CostModel) (*IterationEngine, error) {
	if err := a.Validate(g); err != nil {
		return nil, err
	}
	return engine.New(g, a.Parts, a.K, model)
}

// ---- fault injection, checkpointing and recovery ----

// FaultSpec is a complete, replayable fault schedule: crashes, transient
// slowdowns and lost message batches at chosen supersteps, plus the
// checkpoint interval and crash recovery policy. Specs serialize to JSON
// (ReadFaultSpecFile / WriteJSON) so a failure scenario is a versioned
// artifact.
type FaultSpec = fault.Spec

// FaultEvent is one scheduled fault in a FaultSpec.
type FaultEvent = fault.Event

// FaultPolicy selects how a run recovers from a crash.
type FaultPolicy = fault.Policy

// FaultController drives one engine's checkpoints, disruptions and
// recovery for a FaultSpec. Obtain one with EnableFaults; it accepts
// Instrument for fault.* trace events and fault_* counters.
type FaultController = fault.Controller

// RecoveryStats summarizes what fault handling cost a run; engines attach
// it to their results (PageRankResult.Recovery, WalkResult.Recovery, ...).
type RecoveryStats = fault.RecoveryStats

// Crash recovery policies.
const (
	// RollbackPolicy reloads the last checkpoint everywhere and replays.
	RollbackPolicy = fault.Rollback
	// RestreamPolicy permanently retires the crashed machine, restreams
	// its vertices onto the survivors (prioritized Fennel restreaming)
	// and replays in degraded mode.
	RestreamPolicy = fault.Restream
)

// Fault event kinds.
const (
	CrashFault   = fault.Crash
	SlowFault    = fault.Slow
	MsgLossFault = fault.MsgLoss
)

// ReadFaultSpecFile reads a fault schedule from path.
func ReadFaultSpecFile(path string) (*FaultSpec, error) { return fault.ReadSpecFile(path) }

// EnableFaults attaches a fault schedule to an engine that supports
// injection (IterationEngine, WalkEngine) and returns the controller so
// the caller can Instrument it or inspect the normalized spec. Pass each
// engine its own controller; a controller is bound to its engine's
// simulated cluster.
func EnableFaults(component any, spec *FaultSpec) (*FaultController, error) {
	e, ok := component.(interface {
		Graph() *graph.Graph
		Cluster() *cluster.Cluster
		SetFaults(*fault.Controller) error
	})
	if !ok {
		return nil, fmt.Errorf("bpart: %T does not support fault injection (IterationEngine and WalkEngine do)", component)
	}
	ctl, err := fault.NewController(e.Graph(), e.Cluster(), spec)
	if err != nil {
		return nil, err
	}
	if err := e.SetFaults(ctl); err != nil {
		return nil, err
	}
	return ctl, nil
}

// WalkEngine is the KnightKing-like random-walk engine.
type WalkEngine = walk.Engine

// WalkConfig selects the walk application and its parameters.
type WalkConfig = walk.Config

// WalkResult is the outcome of a walk run.
type WalkResult = walk.Result

// WalkKind selects the walk application.
type WalkKind = walk.Kind

// The paper's five random-walk applications plus plain random walks and
// KnightKing-style static-weight biased walks.
const (
	SimpleWalk = walk.Simple
	PPR        = walk.PPR
	RWJ        = walk.RWJ
	RWD        = walk.RWD
	DeepWalk   = walk.DeepWalk
	Node2Vec   = walk.Node2Vec
	BiasedWalk = walk.BiasedWalk
)

// NewWalkEngine places g on a simulated cluster per the assignment.
func NewWalkEngine(g *Graph, a *Assignment, model CostModel) (*WalkEngine, error) {
	if err := a.Validate(g); err != nil {
		return nil, err
	}
	return walk.New(g, a.Parts, a.K, model)
}

// ---- vertex embeddings (the walks' downstream consumer) ----

// EmbedConfig holds skip-gram/negative-sampling hyperparameters.
type EmbedConfig = embed.Config

// Embeddings holds trained vertex vectors.
type Embeddings = embed.Embeddings

// TrainEmbeddings learns vertex embeddings from a walk corpus
// (WalkConfig.CollectPaths) — DeepWalk/node2vec end to end.
func TrainEmbeddings(corpus [][]VertexID, numVertices int, cfg EmbedConfig) (*Embeddings, error) {
	return embed.Train(corpus, numVertices, cfg)
}

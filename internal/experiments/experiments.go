// Package experiments regenerates every table and figure of the paper's
// evaluation (§2.3 motivation plots and §4), plus the ablations called out
// in DESIGN.md. Each experiment is a function from Options to a *Table —
// a plain text table whose rows correspond to the series the paper plots —
// so the same code backs cmd/bench, the testing.B benchmarks in
// bench_test.go, and EXPERIMENTS.md.
//
// Graphs and partitions are memoized per (dataset, scale) so that a full
// run does not regenerate the synthetic datasets dozens of times; a
// memoized graph carries its reverse (graph.Graph.In) to every engine and
// stream over it. Everything except the wall-clock timings of Table 2 and
// S5 Related is deterministic.
package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"bpart/internal/cluster"
	"bpart/internal/engine"
	"bpart/internal/fault"
	"bpart/internal/gen"
	"bpart/internal/graph"
	"bpart/internal/metrics"
	"bpart/internal/partition"
	"bpart/internal/telemetry"
	"bpart/internal/walk"
)

// Options configures an experiment run.
type Options struct {
	// Scale shrinks (<1) or grows (>1) the preset datasets. The default
	// 0 means 1.0. Tests use small scales; EXPERIMENTS.md records
	// scale 1.0.
	Scale float64
	// Walkers overrides walkers-per-vertex for the runtime experiments
	// (default: the paper's 5 for load/waiting figures, 1 for the
	// application-time figures).
	Walkers int
	// Tracer, when non-nil, is attached to every engine an experiment
	// builds; `bench -trace` arrives here, as do `-pprof`'s registry and `-json`'s
	// HistogramSink. Observation-only — results are identical with or
	// without it.
	Tracer telemetry.Tracer
	// Faults, when non-nil, injects this fault schedule into every engine
	// an experiment builds (bench -fault): each engine gets its own
	// controller over a clone of the spec, projected onto the engine's
	// machine count. The Fault Recovery experiment and the BENCH
	// artifact's recovery section also honor it.
	Faults *fault.Spec
	// Workers is the superstep worker-pool size for every iteration and
	// walk engine an experiment builds (cmd/bench -workers); 0 selects the
	// cluster's default, min(GOMAXPROCS, machines), and 1 runs supersteps
	// inline on the calling goroutine. The engines' outputs and counters
	// are bit-identical at any setting; only host wall time changes, so
	// every deterministic table and artifact section is unaffected.
	Workers int
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1.0
	}
	return o.Scale
}

// Table is one reproduced table or figure.
type Table struct {
	ID     string // e.g. "Fig 10"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV writes the table in RFC-4180 CSV form (header row first), the
// format plotting scripts consume to regenerate the paper's figures.
func (t *Table) CSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	if err := cw.WriteAll(t.Rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// Experiment pairs an ID with its runner.
type Experiment struct {
	ID  string
	Run func(Options) (*Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"Fig 3", Fig3},
		{"Fig 4", Fig4},
		{"Fig 5", Fig5},
		{"Fig 6", Fig6},
		{"Fig 8", Fig8},
		{"Fig 10", Fig10},
		{"Fig 11", Fig11},
		{"Table 1", Table1},
		{"Table 2", Table2},
		{"S4.2 Mt-KaHIP", MtKaHIP},
		{"S3.3 Connectivity", Connectivity},
		{"Fig 12", Fig12},
		{"Fig 13", Fig13},
		{"Fig 14", Fig14},
		{"Table 3", Table3},
		{"Fig 15", Fig15},
		{"S5 Related", RelatedWork},
		{"S5 Vertex-cut", VertexCut},
		{"Ablation C", AblationC},
		{"Ablation Split", AblationSplit},
		{"Ablation Refine", AblationRefine},
		{"Ablation Order", AblationOrder},
		{"Ablation Hetero", AblationHetero},
		{"Fault Recovery", FaultRecovery},
		{"Comm Matrix", CommMatrix},
	}
}

// ---- memoization ----

type graphKey struct {
	d     gen.Dataset
	scale float64
}

type partKey struct {
	g      graphKey
	scheme string
	k      int
}

var (
	memoMu     sync.Mutex
	graphMemo  = map[graphKey]*graph.Graph{}
	assignMemo = map[partKey][]int{}
)

// dataset returns the memoized synthetic graph for d at the option scale.
func dataset(d gen.Dataset, opt Options) (*graph.Graph, error) {
	key := graphKey{d, opt.scale()}
	memoMu.Lock()
	g, ok := graphMemo[key]
	memoMu.Unlock()
	if ok {
		return g, nil
	}
	g, err := gen.Preset(d, opt.scale())
	if err != nil {
		return nil, err
	}
	memoMu.Lock()
	graphMemo[key] = g
	memoMu.Unlock()
	return g, nil
}

// assignment returns the memoized partition of dataset d by the named
// scheme into k parts.
func assignment(d gen.Dataset, opt Options, scheme string, k int) ([]int, error) {
	key := partKey{graphKey{d, opt.scale()}, scheme, k}
	memoMu.Lock()
	parts, ok := assignMemo[key]
	memoMu.Unlock()
	if ok {
		return parts, nil
	}
	g, err := dataset(d, opt)
	if err != nil {
		return nil, err
	}
	p, err := partition.Get(scheme)
	if err != nil {
		return nil, err
	}
	a, err := p.Partition(g, k)
	if err != nil {
		return nil, fmt.Errorf("%s on %s (k=%d): %w", scheme, d, k, err)
	}
	memoMu.Lock()
	assignMemo[key] = a.Parts
	memoMu.Unlock()
	return a.Parts, nil
}

// ResetMemo clears the memoization caches (used by benchmarks that want to
// time cold runs).
func ResetMemo() {
	memoMu.Lock()
	defer memoMu.Unlock()
	graphMemo = map[graphKey]*graph.Graph{}
	assignMemo = map[partKey][]int{}
}

// ---- shared runners ----

// oneDimSchemes are the three schemes of the motivation figures.
var oneDimSchemes = []string{"Chunk-V", "Chunk-E", "Fennel"}

// compareSchemes are the four schemes the running-time figures compare
// against BPart's baseline Chunk-V.
var compareSchemes = []string{"Chunk-V", "Chunk-E", "Fennel", "BPart"}

// allSchemes adds Hash (Table 3).
var allSchemes = []string{"Chunk-V", "Chunk-E", "Fennel", "Hash", "BPart"}

// report measures scheme's memoized k-way placement of d through
// metrics.NewReport, the harness's one source of bias, Jain and cut.
func report(d gen.Dataset, opt Options, scheme string, k int) (metrics.Report, error) {
	g, err := dataset(d, opt)
	if err != nil {
		return metrics.Report{}, err
	}
	parts, err := assignment(d, opt, scheme, k)
	if err != nil {
		return metrics.Report{}, err
	}
	return metrics.NewReport(g, parts, k, false), nil
}

// walkEngine and iterEngine build every engine an experiment runs.
func walkEngine(d gen.Dataset, opt Options, scheme string, k int, model cluster.CostModel) (*walk.Engine, error) {
	return newEngine(d, opt, scheme, k, model, walk.New)
}

func iterEngine(d gen.Dataset, opt Options, scheme string, k int) (*engine.Engine, error) {
	return newEngine(d, opt, scheme, k, cluster.DefaultCostModel(), engine.New)
}

// instrumented is the engine-side surface newEngine needs; both the
// iteration and walk engines satisfy it.
type instrumented interface {
	Graph() *graph.Graph
	Cluster() *cluster.Cluster
	SetTelemetry(telemetry.Tracer, *telemetry.Registry)
	SetFaults(*fault.Controller) error
}

// newEngine builds an engine over scheme's memoized placement of d with
// Options' worker pool, telemetry and fault schedule attached.
func newEngine[E instrumented](d gen.Dataset, opt Options, scheme string, k int, model cluster.CostModel,
	build func(*graph.Graph, []int, int, cluster.CostModel) (E, error)) (E, error) {
	var none E
	g, err := dataset(d, opt)
	if err != nil {
		return none, err
	}
	parts, err := assignment(d, opt, scheme, k)
	if err != nil {
		return none, err
	}
	e, err := build(g, parts, k, model)
	if err != nil {
		return none, err
	}
	e.Cluster().SetWorkers(opt.Workers)
	e.SetTelemetry(opt.Tracer, nil)
	if err := attachFaults(opt, e, opt.scheduleFor(k)); err != nil {
		return none, err
	}
	return e, nil
}

// attachFaults is the harness's one way to put an engine under a fault
// schedule: a controller of its own over spec (normalized in place — pass
// a clone), instrumented like the engine. A nil spec leaves the engine
// fault-free.
func attachFaults(opt Options, e instrumented, spec *fault.Spec) error {
	if spec == nil {
		return nil
	}
	ctl, err := fault.NewController(e.Graph(), e.Cluster(), spec)
	if err != nil {
		return err
	}
	ctl.SetTelemetry(opt.Tracer, nil)
	return e.SetFaults(ctl)
}

// scheduleFor projects Options.Faults (when set) onto a k-machine cluster,
// as a clone so every engine's controller owns its schedule. Clusters too
// small to lose a machine run fault-free.
func (o Options) scheduleFor(k int) *fault.Spec {
	if o.Faults == nil || k < 2 {
		return nil
	}
	return o.Faults.ForMachines(k)
}

// ---- formatting helpers ----

func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string { return fmt.Sprintf("%.3f", x) }
func f4(x float64) string { return fmt.Sprintf("%.4f", x) }
func d0(x int) string     { return fmt.Sprintf("%d", x) }
func i64(x int64) string  { return fmt.Sprintf("%d", x) }

// summarizeRatios reports min/median/max of a ratio series.
func summarizeRatios(xs []int) (minR, medR, maxR float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	total := 0
	for _, x := range xs {
		total += x
	}
	s := append([]int(nil), xs...)
	sort.Ints(s)
	t := float64(total)
	if t == 0 {
		return 0, 0, 0
	}
	return float64(s[0]) / t, float64(s[len(s)/2]) / t, float64(s[len(s)-1]) / t
}

// Command bpart partitions a graph and reports the two-dimensional balance
// and edge-cut quality of the result — the quantities the paper's
// evaluation revolves around.
//
// Usage:
//
//	bpart -scheme BPart -k 8 -graph twitter.el
//	bpart -scheme Fennel -k 16 -dataset twitter-sim -scale 0.5
//	bpart -k 8 -dataset friendster-sim -all
//	bpart -scheme BPart -k 8 -dataset twitter-sim -out parts.txt
//
// The input is either a graph file (-graph; edge-list text or ".bg"
// binary) or a named synthetic dataset (-dataset at -scale). With -all,
// every registered scheme is run and compared on one line each. With
// -out, the vertex→part assignment is written one part id per line.
//
// Observability: -trace out.jsonl streams structured spans (one per BPart
// combining layer, streaming pass and refine pass, plus one record per BSP
// superstep of each engine run: the -fault PageRank and the -timeline
// walk) as JSON lines, and, for BPart, Fennel and LDG, the partition
// decision audit as audit.* events (sampled score
// decompositions, the streaming quality timeline and the combining audit
// tree — feed the trace to `tracestat explain|timeline|combine`); -metrics
// prints the counter/gauge registry in Prometheus text format on exit
// (audit_*_total counts the audit events); -pprof ADDR serves
// /debug/pprof/*, /metrics and /debug/vars on ADDR for the run's duration.
// Every span record of the trace carries the runtime resource deltas of
// its interval as res_* attrs (partition streams, BPart layers, engine and
// walk runs — `tracestat report` sums them per span name). A trace that fails
// to flush fails the run. All observability is observation-only: the
// partition and every simulated result are byte-identical with or without
// it.
//
// -out, -timeline and -fault act on the one assignment a single
// -scheme run produces; with -list, -eval, -vcut or -all they are usage
// errors rather than silently ignored.
//
// Fault injection: -fault sched.json loads a JSON fault schedule (see
// FaultSpec; cmd/bench shares the format) and injects it into the engine
// runs — a PageRank recovery demo over the fresh partition, and the
// -timeline walk when requested — then prints each run's RecoveryStats.
// The schedule's checkpoint_every field sets the checkpoint interval, so
// checkpointing with no faults is a schedule with no events
// (internal/fault/testdata/checkpoint2.json). -workers N runs the engine
// and walk supersteps on an N-worker goroutine pool (default
// min(GOMAXPROCS, machines)); results are bit-identical to the sequential
// run.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"bpart"
)

// errUsage reports a flag error the flag package has already printed.
var errUsage = errors.New("usage")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "bpart:", err)
		os.Exit(1)
	}
}

// run is the whole command. It returns instead of exiting so the deferred
// trace flush runs on every path: an error raised after the file was
// opened still leaves everything recorded so far on disk, which is when
// the trace is wanted most. A flush that fails is part of the returned
// error, so a truncated trace never exits 0.
func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("bpart", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphPath = fs.String("graph", "", "graph file (edge list, or .bg binary)")
		datasetID = fs.String("dataset", "", "synthetic dataset: lj-sim, twitter-sim, friendster-sim")
		scale     = fs.Float64("scale", 1.0, "synthetic dataset scale")
		scheme    = fs.String("scheme", "BPart", "partitioning scheme (see -list)")
		k         = fs.Int("k", 8, "number of parts")
		all       = fs.Bool("all", false, "compare every registered scheme")
		vcutMode  = fs.Bool("vcut", false, "compare the vertex-cut schemes instead (replication factor)")
		list      = fs.Bool("list", false, "list registered schemes and exit")
		outPath   = fs.String("out", "", "write the vertex→part assignment to this file")
		evalPath  = fs.String("eval", "", "evaluate an existing assignment file instead of partitioning")
		timeline  = fs.String("timeline", "", "run a 5|V|-walker random walk on the partition and write the per-machine BSP timeline CSV here")
		faultPath = fs.String("fault", "", "inject this JSON fault schedule (see FaultSpec) into the engine runs and print their RecoveryStats")
		tracePath = fs.String("trace", "", "write a JSONL span/event trace of the run, with the audit.* events tracestat explain/timeline/combine read and each span's res_* resource deltas, to this file")
		metrics   = fs.Bool("metrics", false, "print telemetry counters (Prometheus text format) on exit")
		pprofAddr = fs.String("pprof", "", "serve /debug/pprof, /metrics and /debug/vars on this address (e.g. localhost:6060)")
		workers   = fs.Int("workers", 0, "superstep worker-pool size for the engine runs (0 = min(GOMAXPROCS, machines); results are bit-identical at any setting)")
	)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return errUsage
	}
	if err := checkModeFlags(fs, stderr, *list, *evalPath != "", *vcutMode, *all); err != nil {
		return err
	}
	// The pool would run a negative width at its default while the run
	// reported the value given, so it is refused before any file is made.
	if *workers < 0 {
		fmt.Fprintf(stderr, "bpart: -workers must be >= 0 (got %d)\n", *workers)
		return errUsage
	}

	tel, err := setupTelemetry(*tracePath, *metrics, *pprofAddr, stdout, stderr)
	if err != nil {
		return err
	}
	defer func() {
		if ferr := tel.finish(); ferr != nil {
			err = errors.Join(err, ferr)
		}
	}()
	var faults *bpart.FaultSpec
	if *faultPath != "" {
		if faults, err = bpart.ReadFaultSpecFile(*faultPath); err != nil {
			return err
		}
	}
	if *list {
		for _, s := range bpart.Schemes() {
			fmt.Fprintln(stdout, s)
		}
		return nil
	}
	g, err := loadGraph(*graphPath, *datasetID, *scale)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "graph: %v (%v)\n", g, bpart.Stats(g))

	if *evalPath != "" {
		a, err := bpart.ReadAssignmentFile(*evalPath)
		if err != nil {
			return err
		}
		r, err := bpart.Evaluate(g, a)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "stored assignment %s:\n%s\n", *evalPath, r)
		return nil
	}

	if *vcutMode {
		fmt.Fprintf(stdout, "%-12s %12s %12s\n", "scheme", "repl.factor", "max replicas")
		for _, p := range []bpart.VertexCutPartitioner{
			bpart.NewRandomEdgeCut(), bpart.NewDBH(), bpart.NewGreedyCut(), bpart.NewHDRF(),
		} {
			bpart.Instrument(p, tel.tracer, tel.reg)
			ea, err := p.Partition(g, *k)
			if err != nil {
				return err
			}
			r, err := bpart.EvaluateVertexCut(g, ea)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-12s %12.3f %12d\n", p.Name(), r.ReplicationFactor, r.MaxReplicas)
		}
		return nil
	}

	if *all {
		fmt.Fprintf(stdout, "%-12s %10s %10s %10s %10s %10s %10s\n",
			"scheme", "Vbias", "Ebias", "Vjain", "Ejain", "cut", "time(s)")
		for _, s := range bpart.Schemes() {
			r, dt, err := runScheme(g, s, *k, tel)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%-12s %10.4f %10.4f %10.4f %10.4f %10.4f %10.3f\n",
				s, r.VertexBias, r.EdgeBias, r.VertexJain, r.EdgeJain, r.CutRatio, dt.Seconds())
		}
		return nil
	}

	p, err := bpart.NewScheme(*scheme)
	if err != nil {
		return err
	}
	bpart.Instrument(p, tel.tracer, tel.reg)
	start := time.Now()
	a, err := p.Partition(g, *k)
	if err != nil {
		return err
	}
	dt := time.Since(start)
	r, err := bpart.Evaluate(g, a)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s into %d parts in %.3fs\n%s\n", *scheme, *k, dt.Seconds(), r)
	if *outPath != "" {
		if err := bpart.WriteAssignmentFile(*outPath, a); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "assignment written to %s\n", *outPath)
	}
	if faults != nil {
		if err := runFaulted(stdout, g, a, faults, *k, *workers, tel); err != nil {
			return err
		}
	}
	if *timeline != "" {
		if err := writeWalkTimeline(stdout, *timeline, g, a, faults, *k, *workers, tel); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "BSP timeline written to %s\n", *timeline)
	}
	return nil
}

// checkModeFlags makes a flag the selected mode would silently ignore a
// usage error: -out, -timeline and -fault act on the one
// assignment a single -scheme run produces, which -list, -eval, -vcut and
// -all never have. Checked before any file is created.
func checkModeFlags(fs *flag.FlagSet, stderr io.Writer, list, eval, vcut, all bool) error {
	var ignored []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "out", "timeline", "fault":
			ignored = append(ignored, "-"+f.Name)
		}
	})
	for _, mode := range []struct {
		on   bool
		name string
	}{{list, "-list"}, {eval, "-eval"}, {vcut, "-vcut"}, {all, "-all"}} { // in the order run dispatches
		if mode.on && len(ignored) > 0 {
			fmt.Fprintf(stderr, "bpart: %s does not honour %s (single -scheme runs only)\n", mode.name, strings.Join(ignored, ", "))
			return errUsage
		}
	}
	return nil
}

// runFaulted replays the schedule against a PageRank run on the fresh
// partition and prints the recovery ledger — the CLI view of the
// RecoveryStats the BENCH artifact records. Recovery is exact, so the
// ranks themselves need no caveat.
func runFaulted(stdout io.Writer, g *bpart.Graph, a *bpart.Assignment, spec *bpart.FaultSpec, k, workers int, tel *telemetryState) error {
	e, err := bpart.NewIterationEngine(g, a, bpart.DefaultCostModel())
	if err != nil {
		return err
	}
	e.Cluster().SetWorkers(workers)
	bpart.Instrument(e, tel.tracer, tel.reg)
	proj := spec.ForMachines(k)
	ctl, err := bpart.EnableFaults(e, proj)
	if err != nil {
		return err
	}
	bpart.Instrument(ctl, tel.tracer, tel.reg)
	res, err := e.PageRank(10, 0.85)
	if err != nil {
		return err
	}
	printRecovery(stdout, "pagerank", proj.Policy, res.Recovery)
	return nil
}

// printRecovery renders one engine run's RecoveryStats on a single line.
func printRecovery(stdout io.Writer, label string, policy bpart.FaultPolicy, rs *bpart.RecoveryStats) {
	if rs == nil {
		return
	}
	fmt.Fprintf(stdout, "%s recovery [%s]: crashes=%d checkpoints=%d (%d vertices) replayed=%d restreamed=%d lost_batches=%d slow=%d sim_time=%.0fus added_wait=%.2f%%\n",
		label, policy, rs.Crashes, rs.Checkpoints, rs.CheckpointVertices,
		rs.SuperstepsReplayed, rs.RestreamedVertices, rs.LostBatches, rs.SlowSupersteps,
		rs.RecoverySimTimeUS, 100*rs.AddedWaitRatio)
}

// telemetryState bundles the run's tracer (feeding the -trace file),
// metrics registry and diagnostics listener.
type telemetryState struct {
	tracer     bpart.Tracer
	closeTrace func() error
	reg        *bpart.Metrics
	metrics    bool
	stdout     io.Writer
	stderr     io.Writer
}

// setupTelemetry wires -trace, -metrics and -pprof. The registry, a sink
// that folds every span into counters, exists only when something reads
// it: the -metrics exit dump or the -pprof endpoint.
func setupTelemetry(tracePath string, metrics bool, pprofAddr string, stdout, stderr io.Writer) (*telemetryState, error) {
	t := &telemetryState{tracer: bpart.NopTrace(), closeTrace: func() error { return nil },
		metrics: metrics, stdout: stdout, stderr: stderr}
	if metrics || pprofAddr != "" {
		t.reg = bpart.NewMetrics()
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return nil, err
		}
		trace := bpart.NewJSONLTrace(f)
		t.tracer, t.closeTrace = trace, func() error { return errors.Join(trace.Close(), f.Close()) }
	}
	if pprofAddr != "" {
		ln := pprofAddr
		go func() {
			if err := http.ListenAndServe(ln, bpart.DebugMux(t.reg)); err != nil {
				fmt.Fprintln(stderr, "bpart: pprof listener:", err)
			}
		}()
		fmt.Fprintf(stdout, "diagnostics on http://%s/debug/pprof/ (also /metrics, /debug/vars)\n", ln)
	}
	return t, nil
}

// finish flushes and closes the trace, returning a failed close, and
// prints the metrics dump.
func (t *telemetryState) finish() error {
	err := t.closeTrace()
	if t.metrics && t.reg != nil {
		fmt.Fprintln(t.stdout, "--- metrics ---")
		if err := t.reg.WritePrometheus(t.stdout); err != nil {
			fmt.Fprintln(t.stderr, "bpart: metrics dump:", err)
		}
	}
	return err
}

// writeWalkTimeline runs the paper's 5|V|-walker, 4-step workload on the
// placement and dumps the per-machine, per-iteration timing as CSV. With a
// fault schedule, the walk runs under injection so the timeline shows the
// recovery barriers.
func writeWalkTimeline(stdout io.Writer, path string, g *bpart.Graph, a *bpart.Assignment, faults *bpart.FaultSpec, k, workers int, tel *telemetryState) error {
	eng, err := bpart.NewWalkEngine(g, a, bpart.DefaultCostModel())
	if err != nil {
		return err
	}
	eng.Cluster().SetWorkers(workers)
	bpart.Instrument(eng, tel.tracer, tel.reg)
	var policy bpart.FaultPolicy
	if faults != nil {
		proj := faults.ForMachines(k)
		ctl, err := bpart.EnableFaults(eng, proj)
		if err != nil {
			return err
		}
		bpart.Instrument(ctl, tel.tracer, tel.reg)
		policy = proj.Policy
	}
	res, err := eng.Run(bpart.WalkConfig{Kind: bpart.SimpleWalk, WalkersPerVertex: 5, Steps: 4, Seed: 1})
	if err != nil {
		return err
	}
	printRecovery(stdout, "walk", policy, res.Recovery)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := res.Stats.WriteTimeline(f); err != nil {
		return err
	}
	return f.Close()
}

func loadGraph(path, datasetID string, scale float64) (*bpart.Graph, error) {
	switch {
	case path != "" && datasetID != "":
		return nil, fmt.Errorf("use either -graph or -dataset, not both")
	case path != "":
		return bpart.ReadGraphFile(path)
	case datasetID != "":
		return bpart.Preset(bpart.Dataset(datasetID), scale)
	default:
		return nil, fmt.Errorf("one of -graph or -dataset is required")
	}
}

func runScheme(g *bpart.Graph, scheme string, k int, tel *telemetryState) (bpart.Report, time.Duration, error) {
	p, err := bpart.NewScheme(scheme)
	if err != nil {
		return bpart.Report{}, 0, err
	}
	bpart.Instrument(p, tel.tracer, tel.reg)
	start := time.Now()
	a, err := p.Partition(g, k)
	if err != nil {
		return bpart.Report{}, 0, err
	}
	dt := time.Since(start)
	r, err := bpart.Evaluate(g, a)
	return r, dt, err
}

// Command bench regenerates the paper's tables and figures (see
// EXPERIMENTS.md). By default it runs every experiment at full scale;
// individual experiments can be selected by ID.
//
// Usage:
//
//	bench                  # everything at scale 1.0 (EXPERIMENTS.md)
//	bench -scale 0.2       # quicker, smaller datasets
//	bench -id "Fig 13" -id "Table 3"
//	bench -list
//	bench -trace run.jsonl -pprof localhost:6060
//	bench -json BENCH_bpart.json -deterministic
//	bench -fault crash5.json
//
// With -trace, one "bench.experiment" span per experiment (id, duration,
// row count) is appended as JSON lines, along with the engines' spans and
// per-superstep cluster records — feed the file to cmd/tracestat. With
// -json, a machine-readable BENCH artifact (schema in EXPERIMENTS.md) is
// written for regression tracking — including a serving section that
// replays the canonical seeded Zipf request stream per scheme through the
// bpartd HTTP surface (internal/servestats); -deterministic zeroes its
// wall-clock fields (experiment seconds, serving latency percentiles) so
// two runs with identical flags produce byte-identical files.
// With -fault, the JSON fault schedule is injected into every engine the
// experiments build and the artifact grows a recovery section; the
// schedule's checkpoint_every field sets the checkpoint interval, so
// checkpointing with no faults is a schedule with no events
// (internal/fault/testdata/checkpoint2.json). With -pprof,
// /debug/pprof/*, /metrics and /debug/vars are served on the given
// address while the benchmark runs — profile the harness live. Every span
// record of the trace (experiments, partition streams, BPart layers,
// engine and walk runs) carries its runtime resource deltas as res_*
// attrs, for cmd/tracestat's `resources` subcommand.
// With -workers N, every engine runs its supersteps on an N-worker
// goroutine pool (default min(GOMAXPROCS, machines)); outputs and every
// deterministic artifact are bit-identical at any setting, so the flag
// changes wall time only. The "Parallel Speedup" experiment sweeps its own
// -widths ladder (default 1,2,4) regardless of -workers.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"bpart"
	"bpart/internal/experiments"
)

type idList []string

func (l *idList) String() string     { return fmt.Sprint(*l) }
func (l *idList) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var ids idList
	scale := fs.Float64("scale", 1.0, "dataset scale (1.0 = EXPERIMENTS.md size)")
	walkers := fs.Int("walkers", 0, "override walkers per vertex (0 = paper defaults)")
	list := fs.Bool("list", false, "list experiment IDs and exit")
	csvDir := fs.String("csv", "", "also write each experiment as CSV into this directory")
	tracePath := fs.String("trace", "", "write a JSONL trace (one span per experiment, each span with its res_* resource deltas) to this file")
	jsonPath := fs.String("json", "", "write a machine-readable BENCH artifact (schema in EXPERIMENTS.md) to this file, e.g. BENCH_bpart.json")
	faultPath := fs.String("fault", "", "inject this JSON fault schedule (see FaultSpec) into every engine the experiments build")
	deterministic := fs.Bool("deterministic", false, "zero the artifact's wall-clock fields so identical flags yield byte-identical output")
	pprofAddr := fs.String("pprof", "", "serve /debug/pprof, /metrics and /debug/vars on this address")
	widthsFlag := fs.String("widths", "", "comma-separated Parallel Speedup worker ladder (default 1,2,4)")
	workers := fs.Int("workers", 0, "superstep worker-pool size for every engine (0 = min(GOMAXPROCS, machines); outputs are bit-identical at any setting)")
	fs.Var(&ids, "id", "experiment ID to run (repeatable; default all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var known []string
	for _, e := range experiments.All() {
		known = append(known, e.ID)
	}
	if *list {
		for _, id := range known {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}
	// An -id that names no experiment is a usage error, so a typo in a CI
	// step fails instead of running nothing.
	selected := map[string]bool{}
	for _, id := range ids {
		if !slices.Contains(known, id) {
			fmt.Fprintf(stderr, "bench: unknown experiment %q (have %q)\n", id, known)
			return 2
		}
		selected[id] = true
	}
	// The harness would run a non-positive scale at 1.0 and negative
	// walkers at the paper defaults while the header, the trace and the
	// artifact recorded the values given, so both are refused up front.
	if *scale <= 0 || *walkers < 0 {
		fmt.Fprintf(stderr, "bench: -scale must be > 0 and -walkers >= 0 (got %g and %d)\n", *scale, *walkers)
		return 2
	}

	var faults *bpart.FaultSpec
	if *faultPath != "" {
		var err error
		if faults, err = bpart.ReadFaultSpecFile(*faultPath); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	// Without -trace the tracer is the no-op one and the run stays on the
	// byte-identical disabled path. The deferred close runs on every return
	// below, so an early exit still leaves a complete trace, and a close
	// that fails turns exit 0 into 1.
	tracer := bpart.NopTrace()
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		trace := bpart.NewJSONLTrace(f)
		tracer = trace
		defer func() {
			if err := errors.Join(trace.Close(), f.Close()); err != nil {
				fmt.Fprintln(stderr, "bench:", err)
				code = max(code, 1)
			}
		}()
	}
	widths, err := parseWidths(*widthsFlag)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	var reg *bpart.Metrics // built only to be served; a nil sink drops out of the tee
	if *pprofAddr != "" {
		reg = bpart.NewMetrics()
		addr := *pprofAddr
		go func() {
			if err := http.ListenAndServe(addr, bpart.DebugMux(reg)); err != nil {
				fmt.Fprintln(stderr, "bench: pprof listener:", err)
			}
		}()
		fmt.Fprintf(stdout, "# diagnostics on http://%s/debug/pprof/\n", addr)
	}
	var hist *experiments.HistogramSink // built only to be written
	if *jsonPath != "" {
		hist = &experiments.HistogramSink{}
	}
	tracer = bpart.TeeTrace(tracer, reg, hist)
	opt := experiments.Options{Scale: *scale, Walkers: *walkers, Tracer: tracer, Faults: faults, Widths: widths, Workers: *workers}
	artifact := experiments.NewBenchArtifact(opt)
	fmt.Fprintf(stdout, "# bpart experiment run: scale=%.2f\n\n", *scale)
	failed := 0
	grand := time.Now()
	for _, e := range experiments.All() {
		id := e.ID
		if len(selected) > 0 && !selected[id] {
			continue
		}
		start := time.Now()
		sp := tracer.Span("bench.experiment",
			bpart.TraceString("id", id),
			bpart.TraceFloat("scale", *scale))
		tbl, err := e.Run(opt)
		if err != nil {
			sp.End(bpart.TraceString("error", err.Error()))
			artifact.RecordExperiment(id, time.Since(start).Seconds(), 0, err)
			fmt.Fprintf(stderr, "%s: %v\n", id, err)
			failed++
			continue
		}
		sp.End(bpart.TraceInt("rows", len(tbl.Rows)))
		artifact.RecordExperiment(id, time.Since(start).Seconds(), len(tbl.Rows), nil)
		fmt.Fprintf(stdout, "%s   [%.1fs]\n\n", tbl, time.Since(start).Seconds())
		if *csvDir != "" {
			if err := writeCSV(*csvDir, id, tbl); err != nil {
				fmt.Fprintf(stderr, "%s: csv: %v\n", id, err)
				failed++
			}
		}
	}
	fmt.Fprintf(stdout, "# total %.1fs\n", time.Since(grand).Seconds())
	if *jsonPath != "" {
		if err := artifact.Collect(opt, hist); err != nil {
			fmt.Fprintln(stderr, "bench: artifact:", err)
			failed++
		} else {
			if *deterministic {
				artifact.StripWallClock()
			}
			if err := artifact.WriteFile(*jsonPath); err != nil {
				fmt.Fprintln(stderr, "bench: artifact:", err)
				failed++
			} else {
				fmt.Fprintf(stdout, "# wrote %s\n", *jsonPath)
			}
		}
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// parseWidths resolves the Parallel Speedup worker ladder: an explicit
// comma-separated -widths list, or nil for the harness's host-independent
// default.
func parseWidths(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var ws []int
	for _, part := range strings.Split(s, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || w < 1 {
			return nil, fmt.Errorf("-widths: %q is not a positive worker count", part)
		}
		ws = append(ws, w)
	}
	return ws, nil
}

func writeCSV(dir, id string, tbl *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := strings.ToLower(strings.ReplaceAll(strings.ReplaceAll(id, " ", "_"), ".", "")) + ".csv"
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := tbl.CSV(f); err != nil {
		return err
	}
	return f.Close()
}

// Command benchmark is the repo's wall-clock benchmark: it generates its
// inputs from a seed, runs jobs of six workloads, checks every output
// against independent oracles, and prints end-to-end metrics (-trace 0) or
// per-layer metrics from direct layer calls plus a traced pass (-trace 1).
// See README.md in this directory.
//
//	benchmark/run.sh -workload partition-k8 -seed 7 -seconds 12 -trace 0
//	benchmark/run.sh -workload all -rounds 15 -out benchmark/out/a.json
//	benchmark/run.sh -compare benchmark/out/a.json benchmark/out/b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setUpReps is how often an untraced run sets up; setup_s is the median.
const setUpReps = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run, or all for every workload interleaved round-robin")
		seed    = fs.Uint64("seed", 1, "seed every input is generated from")
		seconds = fs.Float64("seconds", 12, "measure for this long (ignored with -rounds)")
		rounds  = fs.Int("rounds", 0, "run exactly this many timed rounds instead of measuring for -seconds")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from layer calls and a traced pass")
		outDir  = fs.String("outdir", filepath.Join("benchmark", "out"), "directory for generated inputs and trace.jsonl")
		outPath = fs.String("out", "", "also write the result, with the host fingerprint, to this JSON file")
		cmp     = fs.Bool("compare", false, "compare two result files: -compare BASE.json NEXT.json")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result files")
			return 2
		}
		base, err := readResult(fs.Arg(0))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		next, err := readResult(fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if !compare(stdout, base, next) {
			return 1
		}
		return 0
	}

	sel := allWorkloads()
	if w := findWorkload(*name); w != nil {
		sel = []*workload{w}
	} else if *name != "all" {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	res, err := execute(newConfig(graphScale, *seed, *outDir), sel, *trace != 0, *rounds, *seconds, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *outPath != "" {
		if err := writeResult(*outPath, res); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}

	line, err := json.Marshal(map[string]any{
		"correct": res.Failed == 0, "attempted": res.Attempted, "failed": res.Failed, "metrics": res.flat(),
	})
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// execute sets up, runs the selected workloads and returns what was
// measured: end-to-end metrics untraced, or per-layer metrics traced.
func execute(cfg config, sel []*workload, traced bool, rounds int, seconds float64, stdout io.Writer) (*result, error) {
	reps := setUpReps
	if traced {
		reps = 1
	}
	in, setupS, err := timedSetUp(cfg, reps)
	if err != nil {
		return nil, err
	}
	res, err := runWorkloads(newHarness(in), setupS, sel, traced, rounds, seconds, stdout)
	if cerr := in.close(); err == nil {
		err = cerr
	}
	return res, err
}

func runWorkloads(h *harness, setupS float64, sel []*workload, traced bool, rounds int, seconds float64, stdout io.Writer) (*result, error) {
	in, cfg := h.in, h.in.cfg
	res := &result{}
	var firstErr error
	tally := func(groups ...map[string]*samples) {
		for _, g := range groups {
			for _, w := range sel {
				s := g[w.name]
				res.Attempted += s.attempted
				res.Failed += s.failed
				if firstErr == nil {
					firstErr = s.firstErr
				}
			}
		}
	}

	if !traced {
		got := h.rounds(sel, untilDone(rounds, seconds), nil)[0]
		tally(got)
		res.EndToEnd = map[string]metricSet{}
		res.JobSeconds = map[string][]float64{}
		for _, w := range sel {
			s := got[w.name]
			ms := metricSet{}
			ms.put("setup_s", "s", setupS)
			ms.put("job_s", "s", median(s.jobS))
			ms.put("job_alloc_mb", "MB", median(s.allocMB))
			res.EndToEnd[w.name] = ms
			res.JobSeconds[w.name] = s.jobS
			printMetrics(stdout, fmt.Sprintf("%s: %d jobs, job_s q1 %.4g q3 %.4g",
				w.name, len(s.jobS), quantile(s.jobS, 0.25), quantile(s.jobS, 0.75)), ms)
			rounds = len(s.jobS)
		}
	} else {
		res.PerLayer = metricSet{}
		lj := &job{workload: "layers"}
		if err := layerPass(in, res.PerLayer, lj); err != nil {
			return nil, fmt.Errorf("layer pass: %w", err)
		}
		res.Attempted, res.Failed, firstErr = lj.attempted, lj.failed, lj.firstErr

		tr := newTracer()
		got := h.rounds(sel, untilDone(rounds, seconds), nil, tr)
		plain, withSpans := got[0], got[1]
		tally(plain, withSpans)
		for _, w := range sel {
			suffix := ""
			if len(sel) > 1 {
				suffix = "." + w.name
			}
			res.PerLayer.put("harness.layers_cover"+suffix, "ratio", median(tr.cover(w.name)))
			// The traced and the untraced job of one round ran back to back,
			// so their ratio is free of the host's slow drift.
			overhead := make([]float64, len(plain[w.name].jobS))
			for i := range overhead {
				overhead[i] = withSpans[w.name].jobS[i] / plain[w.name].jobS[i]
			}
			res.PerLayer.put("harness.trace_overhead_ratio"+suffix, "ratio", median(overhead))
			res.PerLayer.put("harness.round_spread"+suffix, "ratio", spread(plain[w.name].jobS))
			rounds = len(plain[w.name].jobS)
		}
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		res.PerLayer.put("harness.peak_rss_mb", "MB", peakRSSMB())
		res.PerLayer.put("harness.gc_pause_total_ms", "ms", float64(mem.PauseTotalNs)/1e6)
		if err := tr.writeJSONL(filepath.Join(cfg.outDir, "trace.jsonl")); err != nil {
			return nil, err
		}
		printMetrics(stdout, "per-layer", res.PerLayer)
	}
	res.Fingerprint = newFingerprint(cfg, rounds)
	if firstErr != nil {
		fmt.Fprintf(stdout, "first failure: %v\n", firstErr)
	}
	return res, nil
}

// minRounds is the fewest timed rounds a -seconds run makes.
const minRounds = 5

// untilDone returns the stop rule of a round loop: after exactly rounds
// rounds when rounds > 0, otherwise once seconds have passed and at least
// minRounds are done. The clock starts at the first question, which the
// round loops ask after their warm-up.
func untilDone(rounds int, seconds float64) func(done int) bool {
	var start time.Time
	return func(done int) bool {
		if rounds > 0 {
			return done >= rounds
		}
		if start.IsZero() {
			start = time.Now()
		}
		return done >= minRounds && time.Since(start).Seconds() >= seconds
	}
}

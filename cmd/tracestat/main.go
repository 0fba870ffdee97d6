// Command tracestat analyzes the JSONL traces written by the telemetry
// layer (bench -trace, or any program using telemetry.JSONL).
//
// Usage:
//
//	tracestat report [-html out.html] [-supersteps n] [-tree-spans n] trace.jsonl
//	tracestat stragglers trace.jsonl
//	tracestat critpath trace.jsonl
//	tracestat comm [-html out.html] [-audit audit.jsonl] [-supersteps n] [-matrix n] trace.jsonl
//	tracestat resources [-html out.html] [-phases n] resources.jsonl
//	tracestat serve [-html out.html] [-assign parts.txt] [-version n] [-gate gate.json] reqlog.jsonl
//	tracestat diff [-fail-above pct] baseline.jsonl candidate.jsonl
//
// report prints the full analysis: span aggregates, the reconstructed
// phase tree and, per BSP run, the WaitRatio decomposition, straggler
// attribution and critical-path split; -html additionally writes a
// self-contained timeline page. stragglers and critpath print just their
// section. comm analyzes the src→dst comm matrices of a matrix-capture run
// (Cluster.SetCommMatrix): the summed matrix, in/out skew, hot-pair
// attribution and per-superstep evolution, with -audit adding the
// predicted-vs-observed cut reconciliation and -html a heatmap page.
// resources analyzes the res_* attrs of a probed run's trace (bench
// -resources; every other subcommand reads that file too): phase
// self-time breakdown, alloc/GC attribution and the
// Parallel Speedup curves, with -html a chart page. serve analyzes
// a bpartd request log: per-endpoint and per-part latency percentiles and
// the version census; -assign adds the per-part tail attribution
// (reconciled exactly against the assignment, -version selecting which
// swap generation, default 1), -gate checks p99 ceilings from a committed
// gate file (exit 1 on breach), and -html writes the latency/heatmap
// page. diff compares
// two traces and, with -fail-above, exits 1 when any gated simulation
// metric regressed by more than the given percent — the CI regression
// gate.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"bpart/internal/commview"
	"bpart/internal/gio"
	"bpart/internal/htmlpage"
	"bpart/internal/partaudit"
	"bpart/internal/resview"
	"bpart/internal/servestats"
	"bpart/internal/traceview"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, `usage:
  tracestat report [-html out.html] [-supersteps n] [-tree-spans n] trace.jsonl
  tracestat stragglers trace.jsonl
  tracestat critpath trace.jsonl
  tracestat comm [-html out.html] [-audit audit.jsonl] [-supersteps n] [-matrix n] trace.jsonl
  tracestat resources [-html out.html] [-phases n] resources.jsonl
  tracestat serve [-html out.html] [-assign parts.txt] [-version n] [-gate gate.json] reqlog.jsonl
  tracestat diff [-fail-above pct] baseline.jsonl candidate.jsonl`)
	return 2
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return usage(stderr)
	}
	switch args[0] {
	case "report":
		return cmdReport(args[1:], stdout, stderr)
	case "stragglers":
		return cmdRuns(args[1:], stdout, stderr, "stragglers")
	case "critpath":
		return cmdRuns(args[1:], stdout, stderr, "critpath")
	case "comm":
		return cmdComm(args[1:], stdout, stderr)
	case "resources":
		return cmdResources(args[1:], stdout, stderr)
	case "serve":
		return cmdServe(args[1:], stdout, stderr)
	case "diff":
		return cmdDiff(args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "tracestat: unknown subcommand %q\n", args[0])
		return usage(stderr)
	}
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "tracestat:", err)
	return 1
}

func cmdReport(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("report", flag.ContinueOnError)
	fs.SetOutput(stderr)
	htmlPath := fs.String("html", "", "also write a self-contained HTML timeline to this file")
	maxSteps := fs.Int("supersteps", 0, "max supersteps in the straggler table (0 = default)")
	maxTree := fs.Int("tree-spans", 0, "max spans in the phase tree (0 = default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		return usage(stderr)
	}
	tr, err := traceview.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	opt := traceview.ReportOptions{MaxSupersteps: *maxSteps, MaxTreeSpans: *maxTree}
	if err := traceview.WriteReport(stdout, tr, opt); err != nil {
		return fail(stderr, err)
	}
	if *htmlPath != "" {
		render := func(w io.Writer) error { return traceview.WriteHTML(w, tr) }
		if err := htmlpage.WriteFile(*htmlPath, render); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "\nwrote %s\n", *htmlPath)
	}
	return 0
}

// cmdRuns serves the single-section subcommands (stragglers, critpath):
// parse, split into runs, print one section per run.
func cmdRuns(args []string, stdout, stderr io.Writer, section string) int {
	fs := flag.NewFlagSet(section, flag.ContinueOnError)
	fs.SetOutput(stderr)
	maxSteps := fs.Int("supersteps", 0, "max supersteps listed (0 = default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		return usage(stderr)
	}
	tr, err := traceview.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	steps, err := traceview.Supersteps(tr)
	if err != nil {
		return fail(stderr, err)
	}
	if len(steps) == 0 {
		fmt.Fprintln(stdout, "no cluster.superstep records in trace")
		return 0
	}
	opt := traceview.ReportOptions{MaxSupersteps: *maxSteps}
	for i, run := range traceview.GroupRuns(steps) {
		var err error
		switch section {
		case "stragglers":
			err = traceview.WriteStragglers(stdout, i+1, run, opt)
		case "critpath":
			err = traceview.WriteCritPath(stdout, i+1, run)
		}
		if err != nil {
			return fail(stderr, err)
		}
	}
	return 0
}

func cmdComm(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("comm", flag.ContinueOnError)
	fs.SetOutput(stderr)
	htmlPath := fs.String("html", "", "also write a self-contained heatmap page to this file")
	auditPath := fs.String("audit", "", "partaudit log to reconcile observed traffic against the predicted cut")
	maxSteps := fs.Int("supersteps", 0, "max supersteps in the evolution table (0 = default)")
	maxMatrix := fs.Int("matrix", 0, "max machine count for which the full matrix is printed (0 = default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		return usage(stderr)
	}
	tr, err := traceview.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	steps, err := traceview.Supersteps(tr)
	if err != nil {
		return fail(stderr, err)
	}
	opt := commview.ReportOptions{MaxSupersteps: *maxSteps, MaxMatrix: *maxMatrix}
	if *auditPath != "" {
		audit, err := partaudit.ReadLogFile(*auditPath)
		if err != nil {
			return fail(stderr, err)
		}
		opt.Audit = audit
	}
	// The reconciliation invariant is checked on every read: a trace whose
	// matrices disagree with the flat counters is corrupted, and analyzing
	// it would dress broken instrumentation up as a topology finding.
	if err := commview.CheckMessages(steps); err != nil {
		return fail(stderr, err)
	}
	if err := commview.WriteReport(stdout, steps, tr.Truncated, opt); err != nil {
		return fail(stderr, err)
	}
	if *htmlPath != "" {
		render := func(w io.Writer) error { return commview.WriteHTML(w, steps, tr.Truncated, "bpart comm topology") }
		if err := htmlpage.WriteFile(*htmlPath, render); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "\nwrote %s\n", *htmlPath)
	}
	return 0
}

func cmdResources(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("resources", flag.ContinueOnError)
	fs.SetOutput(stderr)
	htmlPath := fs.String("html", "", "also write a self-contained chart page to this file")
	maxPhases := fs.Int("phases", 0, "max phases in the breakdown tables (0 = default)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		return usage(stderr)
	}
	tr, err := traceview.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	if err := resview.WriteReport(stdout, tr, resview.ReportOptions{MaxPhases: *maxPhases}); err != nil {
		return fail(stderr, err)
	}
	if *htmlPath != "" {
		render := func(w io.Writer) error { return resview.WriteHTML(w, tr, "bpart runtime resources") }
		if err := htmlpage.WriteFile(*htmlPath, render); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "\nwrote %s\n", *htmlPath)
	}
	return 0
}

func cmdServe(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	htmlPath := fs.String("html", "", "also write a self-contained latency/heatmap page to this file")
	assignPath := fs.String("assign", "", "assignment file: adds the per-part tail attribution, reconciled exactly")
	version := fs.Int("version", 1, "assignment version to attribute (with -assign)")
	gatePath := fs.String("gate", "", "p99 gate file (baselines/SERVING_gate.json); exit 1 on breach")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		return usage(stderr)
	}
	log, err := servestats.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	rep := servestats.Summarize(log)
	var attrib []servestats.Attribution
	if *assignPath != "" {
		parts, k, err := gio.ReadAssignmentFile(*assignPath)
		if err != nil {
			return fail(stderr, err)
		}
		if attrib, err = servestats.Attribute(log, parts, k, *version); err != nil {
			return fail(stderr, err)
		}
	}
	if err := servestats.WriteText(stdout, rep, attrib); err != nil {
		return fail(stderr, err)
	}
	if *htmlPath != "" {
		render := func(w io.Writer) error { return servestats.WriteHTML(w, rep, attrib) }
		if err := htmlpage.WriteFile(*htmlPath, render); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "\nwrote %s\n", *htmlPath)
	}
	if *gatePath != "" {
		gate, err := servestats.ReadGateFile(*gatePath)
		if err != nil {
			return fail(stderr, err)
		}
		if err := gate.Check(rep); err != nil {
			fmt.Fprintf(stderr, "tracestat: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, "serving gate: ok")
	}
	return 0
}

func cmdDiff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	failAbove := fs.Float64("fail-above", 0, "exit 1 when a gated metric regresses by more than this percent (0 = report only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		return usage(stderr)
	}
	a, err := traceview.ReadFile(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	b, err := traceview.ReadFile(fs.Arg(1))
	if err != nil {
		return fail(stderr, err)
	}
	d, err := traceview.Diff(a, b)
	if err != nil {
		return fail(stderr, err)
	}
	if err := d.WriteText(stdout, *failAbove); err != nil {
		return fail(stderr, err)
	}
	if d.Exceeds(*failAbove) {
		fmt.Fprintf(stderr, "tracestat: regression gate tripped (fail-above %.2f%%)\n", *failAbove)
		return 1
	}
	return 0
}

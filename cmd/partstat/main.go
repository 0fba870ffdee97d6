// Command partstat analyzes the JSONL partition audit logs written by the
// decision audit layer (bpart -audit, bench -audit, or any program using
// an Auditor).
//
// Usage:
//
//	partstat explain <vertexID> audit.jsonl
//	partstat timeline [-html out.html] audit.jsonl
//	partstat combine audit.jsonl
//
// explain prints every sampled placement of one vertex: the per-piece
// score table (affinity − penalty = score, capacity skips), the chosen
// piece, the tie-break/fallback cause and the runner-up gap. timeline
// prints the streaming quality timeline (per-window vertex/edge bias and
// cut ratio, ending on the numbers Evaluate reports); -html additionally
// writes a self-contained chart. combine prints the combining audit tree:
// pairing rounds, freeze decisions and the predicted-vs-actual final
// balance.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"bpart/internal/htmlpage"
	"bpart/internal/partaudit"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, `usage:
  partstat explain <vertexID> audit.jsonl
  partstat timeline [-html out.html] audit.jsonl
  partstat combine audit.jsonl`)
	return 2
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return usage(stderr)
	}
	switch args[0] {
	case "explain":
		return cmdExplain(args[1:], stdout, stderr)
	case "timeline":
		return cmdTimeline(args[1:], stdout, stderr)
	case "combine":
		return cmdCombine(args[1:], stdout, stderr)
	default:
		fmt.Fprintf(stderr, "partstat: unknown subcommand %q\n", args[0])
		return usage(stderr)
	}
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "partstat:", err)
	return 1
}

func cmdExplain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("explain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		return usage(stderr)
	}
	vertex, err := strconv.Atoi(fs.Arg(0))
	if err != nil {
		return fail(stderr, fmt.Errorf("bad vertex ID %q: %w", fs.Arg(0), err))
	}
	log, err := partaudit.ReadLogFile(fs.Arg(1))
	if err != nil {
		return fail(stderr, err)
	}
	if err := partaudit.WriteExplain(stdout, log, vertex); err != nil {
		return fail(stderr, err)
	}
	return 0
}

func cmdTimeline(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("timeline", flag.ContinueOnError)
	fs.SetOutput(stderr)
	htmlPath := fs.String("html", "", "also write a self-contained HTML chart to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		return usage(stderr)
	}
	log, err := partaudit.ReadLogFile(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	if err := partaudit.WriteTimeline(stdout, log); err != nil {
		return fail(stderr, err)
	}
	if *htmlPath != "" {
		render := func(w io.Writer) error { return partaudit.WriteTimelineHTML(w, log) }
		if err := htmlpage.WriteFile(*htmlPath, render); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "\nwrote %s\n", *htmlPath)
	}
	return 0
}

func cmdCombine(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("combine", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		return usage(stderr)
	}
	log, err := partaudit.ReadLogFile(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	if err := partaudit.WriteCombine(stdout, log); err != nil {
		return fail(stderr, err)
	}
	return 0
}

// Command tracestat analyzes the JSONL logs the observability layers
// write: traces (-trace), bpartd request logs (-reqlog). Run it
// without arguments for the usage lines, printed from the subcommand table
// below; `tracestat <subcommand> -h` describes a subcommand's flags.
//
// Traces: report prints the full analysis (span aggregates with the
// alloc/GC deltas of the spans' res_* attrs, the phase tree and, per BSP
// run, the WaitRatio decomposition, straggler attribution and
// critical-path split); comm analyzes the src→dst matrices of a
// matrix-capture run (Cluster.SetCommMatrix).
// Request logs: serve prints per-endpoint and per-part latency percentiles
// and the version census.
// The partition decision audit, the audit.* events of a trace of a BPart,
// Fennel or LDG run: explain prints every sampled placement of one vertex (the
// per-piece score table, the chosen piece, its cause and the runner-up
// gap); timeline prints the streaming quality timeline, ending on the
// numbers Evaluate reports; combine prints the combining audit tree
// (pairing rounds, freeze decisions, predicted vs actual balance).
//
// Exit status: 0 on success, 1 when a log cannot be read or a gate trips,
// 2 on a usage error (an unknown subcommand or flag, a wrong argument
// count, or a flag the subcommand would ignore).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"bpart/internal/commview"
	"bpart/internal/gio"
	"bpart/internal/partaudit"
	"bpart/internal/servestats"
	"bpart/internal/traceview"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// A command is one subcommand. Everything else — the FlagSet, the
// argument count, usage and exit 2, the failure line and exit 1 — belongs
// to the driver, which also prints the usage lines from these rows, so a
// subcommand accepts exactly the flags its line shows.
type command struct {
	name string
	args []string // positional argument names, in order
	// setup declares the subcommand's own flags and returns its body.
	setup func(fs *flag.FlagSet) func(c *call) error
}

// call is one invocation's positional arguments and output.
type call struct {
	args   []string
	stdout io.Writer
}

// noFlags is the setup of a subcommand that takes no flags.
func noFlags(body func(c *call) error) func(*flag.FlagSet) func(*call) error {
	return func(*flag.FlagSet) func(*call) error { return body }
}

var commands = []command{
	{name: "report", args: []string{"trace.jsonl"},
		setup: noFlags(func(c *call) error {
			tr, err := traceview.ReadFile(c.args[0])
			if err != nil {
				return err
			}
			return traceview.WriteReport(c.stdout, tr)
		})},
	{name: "comm", args: []string{"trace.jsonl"},
		setup: func(fs *flag.FlagSet) func(*call) error {
			auditPath := fs.String("audit", "", "reconcile observed traffic against the cut predicted by the audit events of the partition's trace `audit.jsonl`")
			return func(c *call) error {
				tr, err := traceview.ReadFile(c.args[0])
				if err != nil {
					return err
				}
				steps, err := traceview.Supersteps(tr)
				if err != nil {
					return err
				}
				var audit *partaudit.Audit
				if *auditPath != "" {
					if audit, err = readAudit(*auditPath); err != nil {
						return err
					}
				}
				// The reconciliation invariant is checked on every read: a
				// trace whose matrices disagree with the flat counters is
				// corrupted, and analyzing it would dress broken
				// instrumentation up as a topology finding.
				if err := commview.CheckMessages(steps); err != nil {
					return err
				}
				return commview.WriteReport(c.stdout, steps, tr.Truncated, audit)
			}
		}},
	{name: "serve", args: []string{"reqlog.jsonl"},
		setup: func(fs *flag.FlagSet) func(*call) error {
			assignPath := fs.String("assign", "", "add the per-part tail attribution, reconciled exactly against the assignment file `parts.txt`")
			version := fs.Int("version", 1, "attribute assignment version `n` (with -assign)")
			gatePath := fs.String("gate", "", "check the p99 gate file `gate.json` (baselines/SERVING_gate.json); exit 1 on breach")
			return func(c *call) error {
				if *assignPath == "" && isSet(fs, "version") {
					return fmt.Errorf("%w: serve -version attributes an -assign file; none given", errUsage)
				}
				log, err := servestats.ReadFile(c.args[0])
				if err != nil {
					return err
				}
				rep := servestats.Summarize(log)
				var attrib []servestats.Attribution
				if *assignPath != "" {
					parts, k, err := gio.ReadAssignmentFile(*assignPath)
					if err != nil {
						return err
					}
					if attrib, err = servestats.Attribute(log, parts, k, *version); err != nil {
						return err
					}
				}
				if err := servestats.WriteText(c.stdout, rep, attrib); err != nil {
					return err
				}
				if *gatePath == "" {
					return nil
				}
				gate, err := servestats.ReadGateFile(*gatePath)
				if err != nil {
					return err
				}
				if err := gate.Check(rep); err != nil {
					return err
				}
				_, err = fmt.Fprintln(c.stdout, "serving gate: ok")
				return err
			}
		}},
	{name: "explain", args: []string{"<vertexID>", "audit.jsonl"},
		setup: noFlags(func(c *call) error {
			vertex, err := strconv.Atoi(c.args[0])
			if err != nil {
				return fmt.Errorf("bad vertex ID %q: %w", c.args[0], err)
			}
			audit, err := readAudit(c.args[1])
			if err != nil {
				return err
			}
			return partaudit.WriteExplain(c.stdout, audit, vertex)
		})},
	{name: "timeline", args: []string{"audit.jsonl"},
		setup: noFlags(func(c *call) error {
			audit, err := readAudit(c.args[0])
			if err != nil {
				return err
			}
			return partaudit.WriteTimeline(c.stdout, audit)
		})},
	{name: "combine", args: []string{"audit.jsonl"},
		setup: noFlags(func(c *call) error {
			audit, err := readAudit(c.args[0])
			if err != nil {
				return err
			}
			return partaudit.WriteCombine(c.stdout, audit)
		})},
}

// errUsage marks a body's error as a usage error: exit 2, not 1.
var errUsage = errors.New("usage")

// isSet reports whether the command line set the named flag.
func isSet(fs *flag.FlagSet, name string) (set bool) {
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// readAudit reads the trace at path and decodes its audit.* events.
func readAudit(path string) (*partaudit.Audit, error) {
	tr, err := traceview.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return tr.Audit()
}

// run is the testable entry point; it returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		return usage(stderr)
	}
	for _, cmd := range commands {
		if cmd.name == args[0] {
			return cmd.run(args[1:], stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "tracestat: unknown subcommand %q\n", args[0])
	return usage(stderr)
}

// flags declares the subcommand's flags on a new FlagSet and returns the
// set and the body that reads them.
func (cmd command) flags() (*flag.FlagSet, func(*call) error) {
	fs := flag.NewFlagSet(cmd.name, flag.ContinueOnError)
	return fs, cmd.setup(fs)
}

func (cmd command) run(args []string, stdout, stderr io.Writer) int {
	c := &call{stdout: stdout}
	fs, body := cmd.flags()
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != len(cmd.args) {
		return usage(stderr)
	}
	c.args = fs.Args()
	if err := body(c); err != nil {
		fmt.Fprintln(stderr, "tracestat:", err)
		if errors.Is(err, errUsage) {
			return 2
		}
		return 1
	}
	return 0
}

// usage prints one line per subcommand, built from its FlagSet.
func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage:")
	for _, cmd := range commands {
		fs, _ := cmd.flags()
		line := []string{"  tracestat", cmd.name}
		fs.VisitAll(func(f *flag.Flag) {
			arg, _ := flag.UnquoteUsage(f)
			line = append(line, "[-"+f.Name+" "+arg+"]")
		})
		fmt.Fprintln(stderr, strings.Join(append(line, cmd.args...), " "))
	}
	return 2
}

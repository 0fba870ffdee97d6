// Package noclock forbids wall-clock reads in the deterministic packages.
//
// Everything under internal/core, internal/partition, internal/cluster,
// internal/engine, internal/walk, internal/fault and internal/experiments
// must rerun bit-identically: simulated time drives the cluster model,
// seeded xrand drives the randomness, and the determinism gates (trace
// diff, BENCH byte comparison, recovery proofs) assume outputs carry no
// trace of the machine's clock. A stray time.Now — even one that only
// feeds a report column — couples artifacts to the host and breaks those
// gates silently.
//
// time.Now, time.Since, time.Until, the timer/ticker constructors and
// time.Sleep are therefore lint errors in those packages. Wall-clock
// measurement that belongs in reports (real partitioner runtimes, for
// example) routes through internal/telemetry — the designated
// observability boundary, exempt by construction — via
// telemetry.NewStopwatch; runtime resource capture likewise lives in
// internal/telemetry, whose trace writer snapshots the runtime around each
// span and writes the deltas as res_* attrs on the span record only, so
// the deterministic packages reach it only through the telemetry.Tracer
// interface and nothing it reads flows back into their outputs (the exempt
// internal/resview only reads those attrs back); request-latency capture for
// the serving layer lives in the exempt internal/servestats, whose clock
// reads are the feature (the BENCH serving section stays deterministic
// because it keeps only request counts and routing skew, never a latency,
// and experiments drives serving through servestats.Play rather than
// timing anything itself). Test files are exempt:
// -timeout handling and
// benchmark plumbing there are the test harness's business. Anything else
// needs a bpartlint:ignore noclock waiver and a reason.
package noclock

import (
	"go/ast"
	"go/types"

	"bpart/internal/analysis"
)

// Analyzer implements the pass.
var Analyzer = &analysis.Analyzer{
	Name: "noclock",
	Doc: "forbid wall-clock reads in the deterministic packages\n\n" +
		"time.Now/Since/Until, timers and Sleep are banned in core, partition, " +
		"cluster, engine, walk, fault and experiments: reruns must be " +
		"bit-identical. Route report timing through telemetry.NewStopwatch.",
	Run: run,
}

// forbidden is the set of time-package functions that read or depend on
// the wall clock. Constructors like time.Unix or time.Date and Duration
// arithmetic are pure and stay allowed.
var forbidden = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"Tick":      true,
	"After":     true,
	"AfterFunc": true,
	"NewTicker": true,
	"NewTimer":  true,
}

// deterministic names the packages that must rerun bit-identically.
var deterministic = []string{"core", "partition", "cluster", "engine", "walk", "fault", "experiments"}

func run(pass *analysis.Pass) error {
	if !pass.InScope(deterministic...) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !forbidden[sel.Sel.Name] {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
			if !ok || pn.Imported().Path() != "time" {
				return true
			}
			pass.Reportf(sel.Pos(), "wall-clock read time.%s in a deterministic package: use simulated time or telemetry.NewStopwatch (or waive with bpartlint:ignore noclock)", sel.Sel.Name)
			return true
		})
	}
	return nil
}

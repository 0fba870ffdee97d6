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
// telemetry.NewStopwatch; runtime resource capture likewise lives in the
// exempt internal/resview, which the deterministic packages reach only
// through the telemetry.Tracer interface (the probe is a tracer sink that
// writes its own trace file, so nothing it reads enters -trace output);
// request-latency capture for
// the serving layer lives in the exempt internal/servestats, whose clock
// reads are the feature (the BENCH serving section stays deterministic
// because StripWallClock zeroes the latency columns, and experiments
// drives serving through servestats.Play rather than timing anything
// itself). Test files are exempt:
// -timeout handling and
// benchmark plumbing there are the test harness's business. Anything else
// needs a bpartlint:ignore noclock waiver and a reason.
package noclock

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"

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
var deterministic = map[string]bool{
	"core":        true,
	"partition":   true,
	"cluster":     true,
	"engine":      true,
	"walk":        true,
	"fault":       true,
	"experiments": true,
}

// scoped reports whether the package must stay deterministic. Whole path
// segments are compared — not raw substrings — so a future
// internal/clustering or internal/walkthrough is not pulled into scope by
// name coincidence. Testdata fixtures mirror the real layout
// (testdata/noclock/core), so the same segments match both.
func scoped(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if deterministic[seg] {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	if !scoped(pass.Path) {
		return nil
	}
	for _, f := range pass.Files {
		base := filepath.Base(pass.Fset.Position(f.Package).Filename)
		if strings.HasSuffix(base, "_test.go") {
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

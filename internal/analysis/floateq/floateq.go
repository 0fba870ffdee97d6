// Package floateq forbids raw ==/!= on floating-point operands in the
// balance-sensitive packages (internal/core, internal/partition,
// internal/metrics).
//
// Balance scores, biases and per-part weights are accumulated floats:
// whether two of them compare equal depends on summation order, FMA
// contraction and compiler version, so a raw == silently couples partition
// decisions (e.g. tie-breaks) to floating-point noise. Comparisons must go
// through the designated helpers in internal/metrics/floatcmp.go —
// ApproxEq for tolerances, TieEq / IsZero where exact semantics are the
// documented intent — or carry a bpartlint:ignore waiver. Test files are
// exempt: golden assertions there pin exact values deliberately.
package floateq

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"

	"bpart/internal/analysis"
)

// Analyzer implements the pass.
var Analyzer = &analysis.Analyzer{
	Name: "floateq",
	Doc: "forbid ==/!= on float operands outside the epsilon helpers\n\n" +
		"In internal/core, internal/partition and internal/metrics, float " +
		"comparisons must use metrics.ApproxEq/TieEq/IsZero (floatcmp.go) so " +
		"intent — tolerance vs exact tie-break — is named and reviewable.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !pass.InScope("core", "partition", "metrics") {
		return nil
	}
	for _, f := range pass.Files {
		// floatcmp.go is the designated home of the raw comparisons that
		// implement the helpers themselves. Test files are also exempt:
		// assertions there compare against exact expected values on
		// purpose — pinning bit-for-bit reproducibility is the point.
		if pass.IsTestFile(f) || filepath.Base(pass.Fset.Position(f.Package).Filename) == "floatcmp.go" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			xv, xok := pass.TypesInfo.Types[be.X]
			yv, yok := pass.TypesInfo.Types[be.Y]
			if !xok || !yok || (!isFloat(xv.Type) && !isFloat(yv.Type)) {
				return true
			}
			// Two constants fold at compile time; that comparison is exact
			// by construction.
			if xv.Value != nil && yv.Value != nil {
				return true
			}
			pass.Reportf(be.OpPos, "floating-point %s depends on rounding; use metrics.ApproxEq/TieEq/IsZero or waive with bpartlint:ignore floateq", be.Op)
			return true
		})
	}
	return nil
}

// isFloat reports whether t's underlying type is a floating-point scalar.
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

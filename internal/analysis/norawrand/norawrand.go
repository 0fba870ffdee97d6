// Package norawrand forbids math/rand outside internal/xrand.
//
// Every experiment table in EXPERIMENTS.md must be regenerable
// bit-for-bit. math/rand (and math/rand/v2) breaks that two ways: the
// global functions are seeded from runtime entropy, and even explicitly
// seeded generators do not promise a stable stream across Go releases.
// internal/xrand's splitmix64 RNG is the only sanctioned randomness
// source; this pass turns any other import of math/rand into a lint error.
package norawrand

import (
	"strconv"

	"bpart/internal/analysis"
)

// Analyzer implements the pass.
var Analyzer = &analysis.Analyzer{
	Name: "norawrand",
	Doc: "forbid math/rand imports outside internal/xrand\n\n" +
		"Seeded determinism is a reproducibility invariant: all randomness must " +
		"flow through bpart/internal/xrand's splitmix64 streams, which are stable " +
		"across platforms and Go releases.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	// xrand itself is the sanctioned wrapper: if it ever chooses to build
	// on math/rand/v2 internals, that is its business.
	if pass.InScope("xrand") {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "import of %q breaks seeded determinism: use bpart/internal/xrand", path)
			}
		}
	}
	return nil
}

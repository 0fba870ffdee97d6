// Package analysis is a self-contained, stdlib-only reimplementation of the
// golang.org/x/tools/go/analysis core: an Analyzer runs over one
// type-checked package and reports Diagnostics. The repo's reproducibility
// invariants — seeded determinism, wall-clock-free simulation, map order
// kept out of output, span hygiene, metric naming, epsilon float
// comparisons, checked writer errors, no retained caller slices — live in
// the sibling analyzer packages (aliasret, errio, floateq, maporder,
// metricname, noclock, norawrand, spanend), which cmd/bpartlint lists and
// drives.
//
// The x/tools module is deliberately not vendored: the build environment is
// offline, so Load (load.go) stands in for go/packages. One `go list
// -export -deps -test` names the packages, their files (build constraints
// applied) and every dependency's compiler export data, built in the local
// build cache; each lint target is type-checked from source and reads its
// imports from that export data through go/importer's gc importer. When
// x/tools becomes available the analyzers port mechanically — the
// Analyzer/Pass/Diagnostic surface mirrors go/analysis on purpose.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"slices"
	"strings"
	"sync"

	"bpart/internal/analysis/cfg"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the pass in diagnostics and ignore directives.
	// It must be a valid identifier.
	Name string
	// Doc is the one-paragraph help text: first line is a summary.
	Doc string
	// Run executes the pass over one package, reporting findings via
	// pass.Report. An error aborts the whole lint run (reserved for
	// internal failures, not findings).
	Run func(pass *Pass) error
}

func (a *Analyzer) String() string { return a.Name }

// Pass carries one type-checked package to an Analyzer.Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Path is the package's import path. Testdata fixtures get theirs too
	// ("bpart/internal/analysis/testdata/floateq/core"), so analyzers
	// that scope by path segment (InScope) work unchanged under
	// analysistest.
	Path string
	// Shared accumulates cross-package state within one Run, e.g. the
	// repo-wide metric-name table maintained by metricname.
	Shared *Shared

	report func(Diagnostic)
}

// Report emits a finding.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	p.report(d)
}

// Reportf emits a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InScope reports whether one of the package path's whole '/'-separated
// segments is in segs. It is the one scope rule of the suite: segments,
// never substrings, so a future internal/clustering or internal/coreutil
// does not fall into a scope that names cluster or core. An external test
// package ("…/core_test") is scoped as the package it tests, and testdata
// fixtures mirror the real layout (testdata/noclock/core), so the same
// segments match both.
func (p *Pass) InScope(segs ...string) bool {
	for _, seg := range strings.Split(strings.TrimSuffix(p.Path, "_test"), "/") {
		if slices.Contains(segs, seg) {
			return true
		}
	}
	return false
}

// IsTestFile reports whether f is a _test.go file. Analyzers whose
// invariant binds production code skip these: tests pin exact values and
// drive clocks and maps on purpose.
func (p *Pass) IsTestFile(f *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(f.Package).Filename, "_test.go")
}

// cfgCache memoizes control-flow graphs per function body across every
// analyzer of one lint run.
type cfgCache struct {
	mu     sync.Mutex
	graphs map[*ast.BlockStmt]*cfg.Graph
}

// CFG returns the control-flow graph of a function body (see
// internal/analysis/cfg), built on first request and shared via the
// Shared blackboard, so flow-sensitive analyzers pay for each function
// once per run rather than once per pass.
func (p *Pass) CFG(body *ast.BlockStmt) *cfg.Graph {
	c := p.Shared.Get("analysis.cfg", func() any {
		return &cfgCache{graphs: map[*ast.BlockStmt]*cfg.Graph{}}
	}).(*cfgCache)
	c.mu.Lock()
	defer c.mu.Unlock()
	g := c.graphs[body]
	if g == nil {
		g = cfg.New(body)
		c.graphs[body] = g
	}
	return g
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// Shared is the cross-package blackboard for one lint run. Analyzers that
// enforce repo-wide invariants stash their accumulation here keyed by
// analyzer name; access is serialized so packages may be analyzed
// concurrently later without changing the analyzers.
type Shared struct {
	mu   sync.Mutex
	vals map[string]any
}

// NewShared returns an empty blackboard.
func NewShared() *Shared { return &Shared{vals: map[string]any{}} }

// Get returns the value stored under key, creating it with mk on first use.
func (s *Shared) Get(key string, mk func() any) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.vals == nil {
		s.vals = map[string]any{}
	}
	v, ok := s.vals[key]
	if !ok {
		v = mk()
		s.vals[key] = v
	}
	return v
}

// ignoreDirective matches "bpartlint:ignore name1,name2 optional reason"
// inside a comment. The directive suppresses the named analyzers on the
// directive's line, or on the following line when the comment stands alone.
var ignoreDirective = regexp.MustCompile(`bpartlint:ignore\s+([A-Za-z0-9_,]+)`)

// ignoreIndex maps file line numbers to the set of analyzer names ignored
// on that line.
type ignoreIndex map[int]map[string]bool

// buildIgnoreIndex scans a file's comments for bpartlint:ignore directives.
func buildIgnoreIndex(fset *token.FileSet, f *ast.File) ignoreIndex {
	var idx ignoreIndex
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := ignoreDirective.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			if idx == nil {
				idx = ignoreIndex{}
			}
			line := fset.Position(c.Pos()).Line
			names := map[string]bool{}
			for _, n := range strings.Split(m[1], ",") {
				names[strings.TrimSpace(n)] = true
			}
			// A standalone directive comment guards the next line; a
			// trailing one guards its own. Registering both is harmless:
			// directives never collide with real code on the same line.
			for _, l := range []int{line, line + 1} {
				if idx[l] == nil {
					idx[l] = map[string]bool{}
				}
				for n := range names {
					idx[l][n] = true
				}
			}
		}
	}
	return idx
}

// Ignored reports whether a diagnostic from analyzer name at pos is
// suppressed by a bpartlint:ignore directive.
func (idx ignoreIndex) Ignored(fset *token.FileSet, name string, pos token.Pos) bool {
	if idx == nil {
		return false
	}
	names := idx[fset.Position(pos).Line]
	return names != nil && (names[name] || names["all"])
}

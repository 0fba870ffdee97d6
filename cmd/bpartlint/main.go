// Command bpartlint runs the repo's static-analysis suite
// (internal/analysis; -list prints it).
//
// Usage:
//
//	bpartlint [-list] [-json] [pattern ...]
//
// Patterns are package directories or "dir/..." trees. The go command lists
// each one from its directory, so a tree under a nested module (such as
// ./benchmark/...) is listed by that module, while "./..." (the default)
// stops at a nested go.mod. A pattern that names no package is a load
// error. Diagnostics print as file:line:col: [analyzer] message, one per
// line; -json emits one JSON object per finding instead
// (fields file, line, col, analyzer, message in that order), the shape the
// CI artifact stores. The exit status is 1 when anything fires, 2 when a
// package fails to load or type-check.
//
// The x/tools multichecker would normally provide `go vet -vettool`
// integration; that path is gated until the dependency is available
// offline (see internal/analysis), so CI and the Makefile invoke this
// binary directly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"bpart/internal/analysis"
	"bpart/internal/analysis/aliasret"
	"bpart/internal/analysis/errio"
	"bpart/internal/analysis/floateq"
	"bpart/internal/analysis/maporder"
	"bpart/internal/analysis/metricname"
	"bpart/internal/analysis/noclock"
	"bpart/internal/analysis/norawrand"
	"bpart/internal/analysis/spanend"
)

// analyzers is the suite, in stable (alphabetical) order.
var analyzers = []*analysis.Analyzer{
	aliasret.Analyzer,
	errio.Analyzer,
	floateq.Analyzer,
	maporder.Analyzer,
	metricname.Analyzer,
	noclock.Analyzer,
	norawrand.Analyzer,
	spanend.Analyzer,
}

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as JSON, one object per line")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: bpartlint [-list] [-json] [pattern ...]\n\npatterns: package dirs or dir/... trees (default ./...)\n\nanalyzers:\n")
		listAnalyzers(flag.CommandLine.Output())
	}
	flag.Parse()
	if *list {
		listAnalyzers(os.Stdout)
		return
	}
	os.Exit(Main(flag.Args(), *jsonOut, os.Stdout, os.Stderr))
}

// listAnalyzers prints the suite inventory, one analyzer per line with the
// first line of its doc.
func listAnalyzers(w io.Writer) {
	for _, a := range analyzers {
		fmt.Fprintf(w, "%-12s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
	}
}

// jsonFinding is the wire shape of one -json line. Field order in the
// struct is the field order on the wire; keep it stable — the CI findings
// artifact and any downstream diffing depend on it.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// Main lints the given patterns, printing diagnostics to out and load
// failures to errOut, and returns the process exit code. It is the whole
// CLI minus flag parsing, so the smoke test can run it in-process.
func Main(patterns []string, jsonOut bool, out, errOut io.Writer) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	code := 0
	fset := token.NewFileSet()
	seen := map[string]bool{}
	var pkgs []*analysis.LoadedPackage
	for _, pat := range patterns {
		dir, tree := strings.CutSuffix(pat, "...")
		rel := "."
		if tree {
			rel = "./..."
		}
		loaded, err := analysis.Load(fset, filepath.Clean(dir), rel)
		if err != nil {
			fmt.Fprintf(errOut, "bpartlint: %s: %v\n", pat, err)
			code = 2
			continue
		}
		for _, pkg := range loaded {
			if seen[pkg.Path] {
				continue // matched by an earlier pattern too
			}
			seen[pkg.Path] = true
			for _, cerr := range pkg.CheckErrs {
				fmt.Fprintf(errOut, "bpartlint: %s: type error: %v\n", pkg.Path, cerr)
				code = 2
			}
			pkgs = append(pkgs, pkg)
		}
	}
	findings, err := analysis.Run(analyzers, fset, pkgs)
	if err != nil {
		fmt.Fprintln(errOut, "bpartlint:", err)
		return 2
	}
	enc := json.NewEncoder(out)
	for _, f := range findings {
		if jsonOut {
			if err := enc.Encode(jsonFinding{
				File:     relFile(f),
				Line:     f.Pos.Line,
				Col:      f.Pos.Column,
				Analyzer: f.Analyzer,
				Message:  f.Message,
			}); err != nil {
				fmt.Fprintln(errOut, "bpartlint:", err)
				return 2
			}
		} else {
			fmt.Fprintf(out, "%s:%d:%d: [%s] %s\n", relFile(f), f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
		}
		if code == 0 {
			code = 1
		}
	}
	return code
}

// relFile renders the finding's file relative to the working directory
// when possible, so a file reached through a pattern such as ../../x
// prints as ../../x/f.go.
func relFile(f analysis.Finding) string {
	wd, err := os.Getwd()
	if err == nil {
		if rel, rerr := filepath.Rel(wd, f.Pos.Filename); rerr == nil {
			return rel
		}
	}
	return f.Pos.Filename
}

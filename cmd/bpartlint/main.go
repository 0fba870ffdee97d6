// Command bpartlint runs the repo's static-analysis suite
// (internal/analysis; -list prints it).
//
// Usage:
//
//	bpartlint [-list] [-json] [pattern ...]
//
// Patterns are package directories or "dir/..." trees; the default "./..."
// lints the whole module. Diagnostics print as file:line:col: [analyzer]
// message, one per line; -json emits one JSON object per finding instead
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
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"bpart/internal/analysis"
	"bpart/internal/analysis/suite"
)

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
	for _, a := range suite.Analyzers() {
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
	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(errOut, "bpartlint:", err)
		return 2
	}
	dirs, err := expand(patterns)
	if err != nil {
		fmt.Fprintln(errOut, "bpartlint:", err)
		return 2
	}

	code := 0
	var pkgs []*analysis.LoadedPackage
	for _, dir := range dirs {
		loaded, err := loader.Load(dir)
		if err != nil {
			fmt.Fprintf(errOut, "bpartlint: %s: %v\n", dir, err)
			code = 2
			continue
		}
		for _, pkg := range loaded {
			for _, cerr := range pkg.CheckErrs {
				fmt.Fprintf(errOut, "bpartlint: %s: type error: %v\n", pkg.Path, cerr)
				code = 2
			}
		}
		pkgs = append(pkgs, loaded...)
	}
	findings, err := analysis.Run(suite.Analyzers(), loader.Fset(), pkgs)
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
// when possible.
func relFile(f analysis.Finding) string {
	wd, err := os.Getwd()
	if err == nil {
		if rel, rerr := filepath.Rel(wd, f.Pos.Filename); rerr == nil && !strings.HasPrefix(rel, "..") {
			return rel
		}
	}
	return f.Pos.Filename
}

// expand resolves patterns to package directories. "dir/..." walks the
// tree; anything else names one directory. testdata, vendor and dot-dirs
// are pruned — fixtures under internal/analysis/testdata contain seeded
// violations on purpose.
func expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		root, walk := strings.CutSuffix(pat, "...")
		root = filepath.Clean(strings.TrimSuffix(root, "/"))
		if root == "" {
			root = "."
		}
		if !walk {
			add(root)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return fs.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(d.Name(), ".go") {
				add(filepath.Dir(path))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

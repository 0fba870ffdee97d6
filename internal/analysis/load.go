package analysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// LoadedPackage is one type-checked package ready for analysis. A package
// with tests yields up to two: the package compiled with its in-package
// _test.go files, and — when present — the external "_test" package.
type LoadedPackage struct {
	Dir   string
	Path  string // import path; xtest variants get a "_test" suffix
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// CheckErrs holds type-checking problems. Analyzers still run (the
	// checker recovers and keeps going), but drivers should surface these:
	// analysis over a broken package can miss findings.
	CheckErrs []error
}

// listedPackage is the part of `go list -json` output Load reads.
type listedPackage struct {
	Dir        string
	ImportPath string
	Export     string
	GoFiles    []string
	ImportMap  map[string]string
	DepOnly    bool
	Error      *struct{ Err string }
}

// Load runs `go list -e -export -deps -test pattern` in dir, so the go
// command resolves the module, the package pattern, test variants and
// build constraints, and compiles every dependency's export data. Each
// package the pattern matches is then parsed and type-checked from source
// once: as its test variant "p [p.test]" when it has in-package tests,
// plus its external test package "p_test [p.test]" when it has one; the
// generated ".test" mains are dropped. Every import is read from the
// export data go list reports, resolved through the importing package's
// ImportMap, so an external test sees its package's test variant. A
// package that fails to build is still checked from its files, so its
// errors land in CheckErrs at their positions; a pattern that names no
// package is an error.
func Load(fset *token.FileSet, dir, pattern string) ([]*LoadedPackage, error) {
	cmd := exec.Command("go", "list", "-e", "-export", "-deps", "-test",
		"-json=Dir,ImportPath,Export,GoFiles,ImportMap,DepOnly,Error", pattern)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		msg := strings.TrimSpace(stderr.String()) // the go command's reason, if it ran
		if msg == "" {
			msg = err.Error()
		}
		return nil, fmt.Errorf("go list: %s", msg)
	}
	byPath := map[string]*listedPackage{}
	var targets []*listedPackage
	for dec := json.NewDecoder(&stdout); dec.More(); {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("go list: %v", err)
		}
		byPath[p.ImportPath] = p
		if !p.DepOnly && !strings.HasSuffix(p.ImportPath, ".test") {
			targets = append(targets, p)
		}
	}
	var out []*LoadedPackage
	for _, p := range targets {
		path, variant, _ := strings.Cut(p.ImportPath, " ")
		if variant == "" && byPath[path+" ["+path+".test]"] != nil {
			continue // linted as its test variant
		}
		if p.Error != nil && len(p.GoFiles) == 0 {
			return nil, errors.New(p.Error.Err) // no package to check, e.g. no Go files
		}
		out = append(out, check(fset, p, path, byPath))
	}
	if len(out) == 0 {
		return nil, errors.New("matched no packages")
	}
	return out, nil
}

// check parses and type-checks one listed package with full type info.
func check(fset *token.FileSet, p *listedPackage, path string, byPath map[string]*listedPackage) *LoadedPackage {
	lp := &LoadedPackage{
		Dir:  p.Dir,
		Path: path,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Scopes:     map[ast.Node]*types.Scope{},
			Implicits:  map[ast.Node]types.Object{},
		},
	}
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			lp.CheckErrs = append(lp.CheckErrs, err)
			continue
		}
		lp.Files = append(lp.Files, f)
	}
	lookup := func(imp string) (io.ReadCloser, error) {
		if id, ok := p.ImportMap[imp]; ok {
			imp = id
		}
		if dep := byPath[imp]; dep != nil && dep.Export != "" {
			return os.Open(dep.Export)
		}
		return nil, fmt.Errorf("no export data for %q", imp)
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Error:    func(err error) { lp.CheckErrs = append(lp.CheckErrs, err) },
	}
	// The checker recovers from errors; a nil package only happens on
	// catastrophic failure, which CheckErrs already captures.
	lp.Types, _ = conf.Check(path, fset, lp.Files, lp.Info)
	return lp
}

package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// LoadedPackage is one type-checked package ready for analysis. A directory
// yields up to two: the base package augmented with its in-package _test.go
// files, and — when present — the external "_test" package.
type LoadedPackage struct {
	Dir   string
	Path  string // module-relative import path; xtest variants get a "_test" suffix
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// CheckErrs holds type-checking problems. Analyzers still run (the
	// checker recovers and keeps going), but drivers should surface these:
	// analysis over a broken package can miss findings.
	CheckErrs []error
}

// Loader parses and type-checks packages of one module without help from
// go/packages: imports inside the module resolve straight to directories,
// and everything else (the standard library) is read from the toolchain's
// export data by go/importer's gc importer, which finds it through
// `go list -export` in the local build cache and so works offline. One
// Loader shares a FileSet and an import cache across every Load call.
type Loader struct {
	ModuleDir  string
	ModulePath string

	fset  *token.FileSet
	std   types.ImporterFrom
	cache map[string]*types.Package
	busy  map[string]bool // import cycle guard
}

// NewLoader returns a Loader rooted at the module containing dir (found by
// walking up to the nearest go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	std, ok := importer.ForCompiler(fset, "gc", nil).(types.ImporterFrom)
	if !ok {
		return nil, fmt.Errorf("analysis: gc importer unavailable")
	}
	return &Loader{
		ModuleDir:  root,
		ModulePath: modPath,
		fset:       fset,
		std:        std,
		cache:      map[string]*types.Package{},
		busy:       map[string]bool{},
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s", gomod)
}

// Fset returns the loader's shared FileSet.
func (l *Loader) Fset() *token.FileSet { return l.fset }

// PkgPath maps a directory under the module to its import path.
func (l *Loader) PkgPath(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.ModuleDir, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.ModuleDir)
	}
	if rel == "." {
		return l.ModulePath, nil
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleDir, 0)
}

// ImportFrom implements types.ImporterFrom: module-local packages are
// type-checked from their directory (sans test files); all other paths are
// delegated to the gc export-data importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg := l.cache[path]; pkg != nil {
		return pkg, nil
	}
	rel, local := l.localDir(path)
	if !local {
		return l.std.ImportFrom(path, l.ModuleDir, mode)
	}
	if l.busy[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	l.busy[path] = true
	defer delete(l.busy, path)

	files, _, _, err := l.parseDir(rel)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", rel)
	}
	// Imported packages must be internally consistent; collect errors but
	// only fail when the checker couldn't produce a package at all.
	var errs []error
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { errs = append(errs, err) },
	}
	pkg, err := conf.Check(path, l.fset, files, nil)
	if pkg == nil {
		if len(errs) > 0 {
			err = errs[0]
		}
		return nil, fmt.Errorf("analysis: checking %s: %w", path, err)
	}
	l.cache[path] = pkg
	return pkg, nil
}

// localDir resolves an import path inside the module to its directory.
func (l *Loader) localDir(path string) (dir string, ok bool) {
	if path == l.ModulePath {
		return l.ModuleDir, true
	}
	if rest, found := strings.CutPrefix(path, l.ModulePath+"/"); found {
		return filepath.Join(l.ModuleDir, filepath.FromSlash(rest)), true
	}
	return "", false
}

// parseDir parses a directory's .go files into base, in-package test, and
// external-test groups.
func (l *Loader) parseDir(dir string) (base, tests, xtests []*ast.File, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasPrefix(e.Name(), ".") && !strings.HasPrefix(e.Name(), "_") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		f, perr := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if perr != nil {
			return nil, nil, nil, perr
		}
		if buildIgnored(f) {
			continue
		}
		switch {
		case strings.HasSuffix(f.Name.Name, "_test"):
			xtests = append(xtests, f)
		case strings.HasSuffix(name, "_test.go"):
			tests = append(tests, f)
		default:
			base = append(base, f)
		}
	}
	return base, tests, xtests, nil
}

// buildIgnored reports whether a file opts out of the build ("//go:build
// ignore" helper programs). Other build expressions are rare in this repo
// and are compiled unconditionally.
func buildIgnored(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			expr := strings.TrimSpace(strings.TrimPrefix(c.Text, "//go:build"))
			if strings.HasPrefix(c.Text, "//go:build") && expr == "ignore" {
				return true
			}
		}
	}
	return false
}

// Load type-checks dir for analysis: the base package with its in-package
// tests merged, plus the external test package when one exists.
func (l *Loader) Load(dir string) ([]*LoadedPackage, error) {
	path, err := l.PkgPath(dir)
	if err != nil {
		return nil, err
	}
	base, tests, xtests, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	var out []*LoadedPackage
	if len(base)+len(tests) > 0 {
		out = append(out, l.check(dir, path, append(append([]*ast.File{}, base...), tests...)))
	}
	if len(xtests) > 0 {
		out = append(out, l.check(dir, path+"_test", xtests))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	return out, nil
}

// check type-checks one analysis variant with full type info. The result is
// never entered into the import cache: importers must see the base package
// without test files.
func (l *Loader) check(dir, path string, files []*ast.File) *LoadedPackage {
	lp := &LoadedPackage{
		Dir:   dir,
		Path:  path,
		Files: files,
		Info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Scopes:     map[ast.Node]*types.Scope{},
			Implicits:  map[ast.Node]types.Object{},
		},
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { lp.CheckErrs = append(lp.CheckErrs, err) },
	}
	// The checker recovers from errors; a nil package only happens on
	// catastrophic failure, which CheckErrs already captures.
	lp.Types, _ = conf.Check(path, l.fset, files, lp.Info)
	return lp
}

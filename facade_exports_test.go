package bpart

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// The facade is the library's API: graphs, partitioners, engines, walks
// and the hooks they accept. Its exported names are pinned in
// testdata/facade_exports.txt, so a name that enters or leaves bpart.go
// is a reviewed change to that file, and it imports none of the tool
// packages (the experiment harness, the serving daemon, the log readers),
// so an example that imports bpart does not link them.
func TestFacadeExports(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "bpart.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				got = append(got, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						got = append(got, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							got = append(got, n.Name)
						}
					}
				}
			}
		}
	}
	slices.Sort(got)
	data, err := os.ReadFile("testdata/facade_exports.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(data))
	for _, n := range got {
		if !slices.Contains(want, n) {
			t.Errorf("bpart.go exports %s, which testdata/facade_exports.txt does not list", n)
		}
	}
	for _, n := range want {
		if !slices.Contains(got, n) {
			t.Errorf("testdata/facade_exports.txt lists %s, which bpart.go no longer exports", n)
		}
	}
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			t.Fatal(err)
		}
		switch path {
		case "bpart/internal/experiments", "bpart/internal/servestats", "bpart/internal/resview",
			"bpart/internal/traceview", "bpart/internal/commview":
			t.Errorf("bpart.go imports the tool package %s", path)
		}
	}
}

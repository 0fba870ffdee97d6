// Package analysistest is the golden-test harness for the bpartlint
// analyzers, mirroring golang.org/x/tools/go/analysis/analysistest: a
// fixture package under internal/analysis/testdata marks every expected
// diagnostic with a trailing
//
//	// want "regexp"
//	// want `regexp with "quotes"`
//
// comment (several per line allowed). The harness type-checks the fixture,
// runs one analyzer, and fails on any unexpected, missing, or mismatched
// diagnostic.
package analysistest

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"bpart/internal/analysis"
)

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)
var quotedRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

type key struct {
	file string
	line int
}

// Run type-checks the fixture directory and checks a's diagnostics against
// its // want annotations.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := analysis.Load(fset, dir, ".")
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	for _, pkg := range pkgs {
		for _, cerr := range pkg.CheckErrs {
			t.Errorf("fixture does not type-check: %v", cerr)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	wants := map[key][]*regexp.Regexp{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantRE.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := fset.Position(c.Pos())
					k := key{pos.Filename, pos.Line}
					for _, q := range quotedRE.FindAllString(m[1], -1) {
						pat, err := strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s: bad want pattern %s: %v", pos, q, err)
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
						}
						wants[k] = append(wants[k], re)
					}
				}
			}
		}
	}

	findings, err := analysis.Run([]*analysis.Analyzer{a}, fset, pkgs)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, f := range findings {
		k := key{f.Pos.Filename, f.Pos.Line}
		matched := false
		for i, re := range wants[k] {
			if re.MatchString(f.Message) {
				wants[k] = append(wants[k][:i], wants[k][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", f.Pos, f.Message)
		}
	}
	var missing []string
	for k, res := range wants {
		for _, re := range res {
			missing = append(missing, fmt.Sprintf("%s:%d: no diagnostic matching %q", k.file, k.line, re))
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		t.Errorf("missing diagnostics:\n%s", strings.Join(missing, "\n"))
	}
}

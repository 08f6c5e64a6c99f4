package fpmpart_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fuzzEntry matches one <package dir>:<FuzzName> entry of the Makefile's
// FUZZ_TARGETS list.
var fuzzEntry = regexp.MustCompile(`^\s*([\w/]+):(Fuzz\w*)\s*\\?$`)

// TestFuzzTargetsListed holds `make fuzz` (and so CI) to every fuzz target:
// each func Fuzz... in a _test.go file must appear in the Makefile's
// FUZZ_TARGETS list under its package directory, and each entry there must
// name a fuzz target that exists.
func TestFuzzTargetsListed(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(string(mk), "\n") {
		if m := fuzzEntry.FindStringSubmatch(line); m != nil {
			listed[m[1]+":"+m[2]] = true
		}
	}
	fset := token.NewFileSet()
	found := map[string]bool{}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Fuzz") {
				found[filepath.ToSlash(filepath.Dir(path))+":"+fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for q := range found {
		if !listed[q] {
			t.Errorf("fuzz target %s is missing from the Makefile's FUZZ_TARGETS", q)
		}
	}
	for q := range listed {
		if !found[q] {
			t.Errorf("FUZZ_TARGETS entry %s names no fuzz target: drop it", q)
		}
	}
}

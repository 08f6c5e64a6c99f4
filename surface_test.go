package fpmpart_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowed lists the exported names under internal/ that no non-test
// file calls, each with the reason it stays exported. Every other exported
// name needs a caller outside the tests.
var surfaceAllowed = map[string]string{
	"blas.Gemm":                 "default-configuration product the blas, app and workerd tests compare against",
	"blas.GemmBlocked":          "seed kernel the blas tests and benchmarks check the packed kernel against",
	"blas.GemmNaive":            "triple-loop oracle the blas tests and fuzzers compare against",
	"faults.Injector.Plan":      "resolved fault plan the faults tests check a seed against",
	"hw.NewTestNode":            "small platform fixture the hw and experiments tests share",
	"matrix.Dense.Clone":        "deep copy the blas and matrix tests keep as a reference operand",
	"matrix.Dense.FillConstant": "fill the blas, app and matrix tests build operands with",
	"par.Gate.Depth":            "configured waiting room the par tests check beside Width",
	"par.Gate.Occupancy":        "admission count the par and service tests wait on",
	"service.Server.CacheLen":   "cache size the service and clusterd tests read",
	"service.Server.WorkerPool": "worker pool the service and fpmworker tests read",
	"telemetry.Hygiene":         "metric-name check the telemetry, service and clusterd tests run",
}

// TestSurfaceHasCallers enforces the ground rule that an exported name under
// internal/ needs a caller outside its own tests. It parses every non-test
// .go file in the repository (benchmark/, cmd/, examples/ and the root
// included), collects every identifier they use, and reports each exported
// top-level name or method under internal/ whose identifier no non-test file
// uses outside its own declaration. Matching is by identifier, not by type,
// so a method shares its name with every other method of that name: the
// check is a lower bound on the names without a caller.
func TestSurfaceHasCallers(t *testing.T) {
	fset := token.NewFileSet()
	used := map[string]bool{}
	declared := map[string]string{} // qualified name -> identifier
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		decl := map[*ast.Ident]bool{}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				decl[d.Name] = true
				if internal && d.Name.IsExported() {
					declared[qualify(f.Name.Name, d)] = d.Name.Name
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					var names []*ast.Ident
					switch s := s.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, n := range names {
						decl[n] = true
						if internal && n.IsExported() {
							declared[f.Name.Name+"."+n.Name] = n.Name
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decl[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var uncalled []string
	for q, id := range declared {
		if !used[id] {
			uncalled = append(uncalled, q)
		}
	}
	sort.Strings(uncalled)
	for _, q := range uncalled {
		if _, ok := surfaceAllowed[q]; !ok {
			t.Errorf("%s is exported but nothing outside the tests calls it: delete it, or allow it with a reason", q)
		}
	}
	for q := range surfaceAllowed {
		if _, ok := declared[q]; !ok {
			t.Errorf("allow-list entry %s names nothing exported under internal/: drop it", q)
		} else if used[declared[q]] {
			t.Errorf("allow-list entry %s now has a caller: drop it", q)
		}
	}
}

// qualify names a function pkg.Func or a method pkg.Type.Method.
func qualify(pkg string, d *ast.FuncDecl) string {
	if d.Recv == nil {
		return pkg + "." + d.Name.Name
	}
	recv, _, _ := strings.Cut(strings.TrimPrefix(types.ExprString(d.Recv.List[0].Type), "*"), "[")
	return pkg + "." + recv + "." + d.Name.Name
}

package fpmpart_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The packages under internal/ fall on two sides. The product is the FPM
// partitioner that fpmd and fpmworker ship, in request order: solver →
// kernels → fpmd → ring → workers. The simulated node is the paper's
// platform, which cmd/experiments and cmd/fpmbench run the partitioner on.
var (
	productPackages = []string{
		"fpm", "partition", "stats", "layout", "cpufeat", "matrix", "blas",
		"telemetry", "par", "faults", "refine", "service", "clusterd",
		"workerd", "cliutil",
	}
	simulatedPackages = []string{
		"sim", "hw", "gpukernel", "app", "bench", "resilient", "experiments",
	}
	// productBinaries must reach no simulated package.
	productBinaries = []string{"cmd/fpmd", "cmd/fpmworker"}
	// serviceLayers are the product packages no simulated package may
	// reach: the simulated node sits beside the service, not on top of it.
	serviceLayers = []string{"service", "clusterd", "workerd", "refine"}
)

// TestPackageLayers holds the package graph to the two sides above. It
// parses the non-test .go files under cmd/ and internal/ (build tags
// ignored) and fails when a package under internal/ is on neither list or
// a listed one does not exist, when a product binary imports a simulated
// package however indirectly, or when a simulated package reaches one of
// the service layers. A failure names the import chain.
func TestPackageLayers(t *testing.T) {
	side := map[string]string{}
	for _, p := range productPackages {
		side["internal/"+p] = "product"
	}
	for _, p := range simulatedPackages {
		if side["internal/"+p] != "" {
			t.Errorf("internal/%s is on both sides", p)
		}
		side["internal/"+p] = "simulated"
	}

	graph := importGraph(t)
	for pkg := range graph {
		if strings.HasPrefix(pkg, "internal/") && side[pkg] == "" {
			t.Errorf("%s is on neither side: add it to productPackages or simulatedPackages", pkg)
		}
	}
	for pkg := range side {
		if _, ok := graph[pkg]; !ok {
			t.Errorf("%s is listed but holds no Go file: drop it", pkg)
		}
	}

	for _, bin := range productBinaries {
		for _, chain := range importChains(graph, bin, func(p string) bool { return side[p] == "simulated" }) {
			t.Errorf("product binary imports the simulated node: %s", chain)
		}
	}
	service := map[string]bool{}
	for _, p := range serviceLayers {
		service["internal/"+p] = true
	}
	for _, p := range simulatedPackages {
		for _, chain := range importChains(graph, "internal/"+p, func(p string) bool { return service[p] }) {
			t.Errorf("simulated package reaches a service layer: %s", chain)
		}
	}
}

// importGraph maps every package directory under cmd/ and internal/ to the
// directories of the module packages its non-test files import, sorted.
func importGraph(t *testing.T) map[string][]string {
	t.Helper()
	const module = "fpmpart/"
	fset := token.NewFileSet()
	seen := map[string]map[string]bool{}
	for _, root := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") {
				return nil
			}
			dir := filepath.ToSlash(filepath.Dir(p))
			if seen[dir] == nil {
				seen[dir] = map[string]bool{}
			}
			if strings.HasSuffix(p, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				if ip, _ := strconv.Unquote(imp.Path.Value); strings.HasPrefix(ip, module) {
					seen[dir][strings.TrimPrefix(ip, module)] = true
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	graph := map[string][]string{}
	for dir, imps := range seen {
		graph[dir] = []string{}
		for ip := range imps {
			graph[dir] = append(graph[dir], ip)
		}
		sort.Strings(graph[dir])
	}
	return graph
}

// importChains walks the imports of from breadth first, not past a package
// for which bad is true, and returns the shortest chain to each such
// package, as "cmd/fpmd → internal/cliutil → internal/telemetry →
// internal/sim".
func importChains(graph map[string][]string, from string, bad func(string) bool) []string {
	parent := map[string]string{from: ""}
	queue := []string{from}
	var chains []string
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		if pkg != from && bad(pkg) {
			chain := []string{pkg}
			for p := parent[pkg]; p != ""; p = parent[p] {
				chain = append([]string{p}, chain...)
			}
			chains = append(chains, strings.Join(chain, " → "))
			continue
		}
		for _, next := range graph[pkg] {
			if _, ok := parent[next]; !ok {
				parent[next] = pkg
				queue = append(queue, next)
			}
		}
	}
	return chains
}

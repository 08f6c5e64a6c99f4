package experiments

import (
	"bytes"
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"

	"fpmpart/internal/gpukernel"
	"fpmpart/internal/hw"
	"fpmpart/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from the current output")

const (
	goldenPath      = "testdata/experiments.golden"
	traceGoldenPath = "testdata/hybrid_trace.golden"
)

// goldenOpts are cmd/experiments' default flags, so the golden is exactly
// what `go run ./cmd/experiments` prints.
func goldenOpts() ModelOptions {
	return ModelOptions{Seed: 1, NoiseSigma: 0.01, Version: gpukernel.V2, FaultSeed: 1}
}

var goldenHeader = regexp.MustCompile(`(?m)^== ([^:\s]+): .* ==$`)

// goldenSections splits printed output into its tables, keyed by experiment
// ID. Each section runs from its "== id: title ==" line to the next one.
func goldenSections(out string) map[string]string {
	idx := goldenHeader.FindAllStringSubmatchIndex(out, -1)
	secs := make(map[string]string, len(idx))
	for i, m := range idx {
		end := len(out)
		if i+1 < len(idx) {
			end = idx[i+1][0]
		}
		secs[out[m[2]:m[3]]] = out[m[0]:end]
	}
	return secs
}

// TestAllRegisteredExperimentsRun prints every registry entry with the
// command's default options and compares it with the golden, so no printed
// number moves unnoticed. After an intended change, regenerate the golden
// with `make golden`.
func TestAllRegisteredExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("slow: runs every experiment")
	}
	var golden string
	if !*update {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("%v (regenerate with `make golden`)", err)
		}
		golden = string(data)
	}
	want := goldenSections(golden)
	node := hw.NewIGNode()
	var all bytes.Buffer
	diffShown := false
	for _, name := range Names() {
		var got bytes.Buffer
		t.Run(name, func(t *testing.T) {
			if err := Print(&got, node, goldenOpts(), []string{name}, false, ""); err != nil {
				t.Fatal(err)
			}
			if *update {
				return
			}
			w, ok := want[name]
			switch {
			case !ok:
				t.Errorf("%s has no table in %s", name, goldenPath)
			case got.String() == w:
			case diffShown:
				t.Errorf("%s differs from %s (line diff shown for the first differing table only)", name, goldenPath)
			default:
				diffShown = true
				t.Errorf("%s differs from %s (- golden, + now):\n%s", name, goldenPath, lineDiff(w, got.String()))
			}
		})
		all.Write(got.Bytes())
	}
	if t.Failed() {
		return
	}
	if *update {
		if err := os.WriteFile(goldenPath, all.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if all.String() != golden {
		t.Errorf("%s holds more than the %d registered tables, or in another order", goldenPath, len(Names()))
	}
}

// hybridTrace builds the Chrome trace `experiments -trace-out f -trace-n 40`
// writes: an FPM-partitioned hybrid run with kernel version 3, five traced
// iterations.
func hybridTrace(t *testing.T, parallelism int) []byte {
	t.Helper()
	opts := goldenOpts()
	opts.Version = gpukernel.V3
	opts.Parallelism = parallelism
	models, err := BuildModels(hw.NewIGNode(), opts)
	if err != nil {
		t.Fatal(err)
	}
	part, err := models.PartitionFPM(40)
	if err != nil {
		t.Fatal(err)
	}
	_, tl, err := models.RunHybridTraced(part.Units(), 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	ct := telemetry.NewChromeTrace()
	tl.AddByLane(ct)
	var buf bytes.Buffer
	if err := ct.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHybridTraceGolden pins the exported hybrid-run trace byte for byte, at
// two pool widths. After an intended change, regenerate it with
// `make golden`.
func TestHybridTraceGolden(t *testing.T) {
	got := hybridTrace(t, 2)
	if *update {
		if err := os.WriteFile(traceGoldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(traceGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with `make golden`)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("hybrid trace differs from %s (- golden, + now):\n%s", traceGoldenPath, lineDiff(string(want), string(got)))
	}
	if serial := hybridTrace(t, 1); !bytes.Equal(serial, got) {
		t.Error("hybrid trace differs between pool widths 1 and 2")
	}
}

var docBlock = regexp.MustCompile("(?s)<!-- golden:([a-z0-9-]+) -->\n```text\n(.*?)```\n<!-- /golden -->")

// TestExperimentsDocMatchesGolden: every measured table EXPERIMENTS.md
// quotes in a golden block is that experiment's section of the golden, so
// the document cannot drift from what the command prints.
func TestExperimentsDocMatchesGolden(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenSections(string(golden))
	seen := map[string]bool{}
	for _, m := range docBlock.FindAllStringSubmatch(string(doc), -1) {
		name, got := m[1], strings.TrimRight(m[2], "\n")
		seen[name] = true
		w, ok := want[name]
		w = strings.TrimRight(w, "\n")
		switch {
		case !ok:
			t.Errorf("EXPERIMENTS.md quotes %s, which %s does not have", name, goldenPath)
		case got != w:
			t.Errorf("EXPERIMENTS.md's %s block differs from %s (- golden, + doc):\n%s", name, goldenPath, lineDiff(w, got))
		}
	}
	for _, name := range []string{"table2", "table3", "figure7", "ablation-dynamic", "recovery"} {
		if !seen[name] {
			t.Errorf("EXPERIMENTS.md has no golden block for %s", name)
		}
	}
}

// lineDiff renders a minimal line diff from want to got: "- " lines are only
// in want, "+ " lines only in got, and "  " lines in both.
func lineDiff(want, got string) string {
	a := strings.Split(strings.TrimSuffix(want, "\n"), "\n")
	b := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	// lcs[i][j] is the longest common subsequence of a[i:] and b[j:].
	lcs := make([][]int, len(a)+1)
	for i := range lcs {
		lcs[i] = make([]int, len(b)+1)
	}
	for i := len(a) - 1; i >= 0; i-- {
		for j := len(b) - 1; j >= 0; j-- {
			if a[i] == b[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else {
				lcs[i][j] = max(lcs[i+1][j], lcs[i][j+1])
			}
		}
	}
	var sb strings.Builder
	for i, j := 0, 0; i < len(a) || j < len(b); {
		switch {
		case i < len(a) && j < len(b) && a[i] == b[j]:
			sb.WriteString("  " + a[i] + "\n")
			i, j = i+1, j+1
		case i < len(a) && (j == len(b) || lcs[i+1][j] >= lcs[i][j+1]):
			sb.WriteString("- " + a[i] + "\n")
			i++
		default:
			sb.WriteString("+ " + b[j] + "\n")
			j++
		}
	}
	return sb.String()
}

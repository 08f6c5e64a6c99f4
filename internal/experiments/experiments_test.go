package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"fpmpart/internal/app"
	"fpmpart/internal/gpukernel"
	"fpmpart/internal/hw"
)

// testOpts keeps model building fast and deterministic in tests.
func testOpts() ModelOptions {
	return ModelOptions{Seed: 7, NoiseSigma: 0.005, Points: 10}
}

func buildIGModels(t *testing.T) *Models {
	t.Helper()
	m, err := BuildModels(hw.NewIGNode(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(tab.Rows[row][col], "%"), 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestTableRenderAndCSV(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Columns: []string{"a", "bb"}, Notes: []string{"hello"}}
	tab.AddRow(1, 2.5)
	tab.AddRow("yo", "z")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"demo", "a", "bb", "2.5", "yo", "note: hello"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	buf.Reset()
	if err := tab.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); !strings.HasPrefix(got, "a,bb\n1,2.5\n") {
		t.Errorf("csv = %q", got)
	}
}

func TestBuildModelsShape(t *testing.T) {
	m := buildIGModels(t)
	if len(m.SocketFull) != 4 || len(m.SocketHost) != 4 || len(m.GPU) != 2 {
		t.Fatalf("model counts wrong: %d/%d/%d", len(m.SocketFull), len(m.SocketHost), len(m.GPU))
	}
	// Full socket is faster than host-mode socket at every size.
	for _, x := range []float64{50, 500, 2000} {
		if m.SocketFull[0].Speed(x) <= m.SocketHost[0].Speed(x) {
			t.Errorf("s6(%v) <= s5(%v)", x, x)
		}
	}
	// The fast GPU dominates the slow one.
	if m.GPU[1].Speed(900) <= m.GPU[0].Speed(900) {
		t.Error("GTX680 model not faster than C870")
	}
	// Invalid node rejected.
	if _, err := BuildModels(&hw.Node{}, testOpts()); err == nil {
		t.Error("invalid node accepted")
	}
}

func TestDevicesOrderAndCaps(t *testing.T) {
	m := buildIGModels(t)
	devs := m.Devices()
	if len(devs) != 6 {
		t.Fatalf("devices = %d, want 6", len(devs))
	}
	if devs[0].Name != "TeslaC870" || devs[1].Name != "GTX680" {
		t.Errorf("GPU order wrong: %s, %s", devs[0].Name, devs[1].Name)
	}
	for _, d := range devs {
		if d.MaxUnits != 0 {
			t.Errorf("v2 models should be uncapped, %s has %v", d.Name, d.MaxUnits)
		}
	}
	// Version-1 models get the memory cap.
	o := testOpts()
	o.Version = gpukernel.V1
	m1, err := BuildModels(hw.NewIGNode(), o)
	if err != nil {
		t.Fatal(err)
	}
	devs1 := m1.Devices()
	if devs1[1].MaxUnits <= 0 {
		t.Error("v1 GTX680 device must carry a memory cap")
	}
}

func TestProcessSharesExpansion(t *testing.T) {
	m := buildIGModels(t)
	procs, err := app.Processes(m.Node, app.Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	units := []int{100, 900, 250, 250, 300, 300} // G2, G1, S5, S5, S6, S6
	shares, err := m.ProcessShares(procs, units)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for i, p := range procs {
		switch {
		case p.Kind == app.GPUHost && p.GPU == 0:
			if shares[i] != 100 {
				t.Errorf("C870 share = %v", shares[i])
			}
		case p.Kind == app.GPUHost && p.GPU == 1:
			if shares[i] != 900 {
				t.Errorf("GTX680 share = %v", shares[i])
			}
		case p.Kind == app.CPUCore && p.Socket == 0:
			if shares[i] != 50 { // 250 / 5 cores
				t.Errorf("socket0 core share = %v", shares[i])
			}
		case p.Kind == app.CPUCore && p.Socket == 2:
			if shares[i] != 50 { // 300 / 6 cores
				t.Errorf("socket2 core share = %v", shares[i])
			}
		}
		total += shares[i]
	}
	if total != 2100 {
		t.Errorf("total shares = %v, want 2100", total)
	}
	if _, err := m.ProcessShares(procs, units[:3]); err == nil {
		t.Error("wrong unit count accepted")
	}
}

func TestTable2Shape(t *testing.T) {
	m := buildIGModels(t)
	tab, err := Table2(m, []int{40, 70})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	cpu40, gpu40, hyb40 := cell(t, tab, 0, 1), cell(t, tab, 0, 2), cell(t, tab, 0, 3)
	cpu70, gpu70, hyb70 := cell(t, tab, 1, 1), cell(t, tab, 1, 2), cell(t, tab, 1, 3)
	// Paper shape: GPU beats CPUs at n=40, loses at n=70; hybrid wins both.
	if gpu40 >= cpu40 {
		t.Errorf("n=40: GPU %v should beat CPUs %v", gpu40, cpu40)
	}
	if gpu70 <= cpu70 {
		t.Errorf("n=70: CPUs %v should beat GPU %v", cpu70, gpu70)
	}
	if hyb40 >= gpu40 || hyb70 >= cpu70 {
		t.Errorf("hybrid (%v, %v) must win both sizes", hyb40, hyb70)
	}
	// Hybrid speedup at n=40 is large (paper: 99.5 → 26.6, ≈3.7x vs CPUs).
	if cpu40/hyb40 < 2 {
		t.Errorf("n=40 hybrid speedup %v too small", cpu40/hyb40)
	}
}

func TestTable3Shape(t *testing.T) {
	m := buildIGModels(t)
	tab, err := Table3(m, []int{40, 70})
	if err != nil {
		t.Fatal(err)
	}
	// Columns: matrix, CPM x6, FPM x6. G1 = GTX680 is device index 1.
	cpmG1n40, fpmG1n40 := cell(t, tab, 0, 2), cell(t, tab, 0, 8)
	cpmG1n70, fpmG1n70 := cell(t, tab, 1, 2), cell(t, tab, 1, 8)
	// At n=40 (in memory) CPM and FPM agree within ~15%.
	rel := (cpmG1n40 - fpmG1n40) / fpmG1n40
	if rel > 0.2 || rel < -0.2 {
		t.Errorf("n=40 G1: CPM %v vs FPM %v should agree", cpmG1n40, fpmG1n40)
	}
	// At n=70 CPM overloads G1 relative to FPM (paper: 2848 vs 2250).
	if cpmG1n70 <= 1.15*fpmG1n70 {
		t.Errorf("n=70 G1: CPM %v should exceed FPM %v by >15%%", cpmG1n70, fpmG1n70)
	}
	// FPM's G1:S6 ratio shrinks from ≈9-11 in-memory to ≈4-6 out-of-core.
	fpmS6n40, fpmS6n70 := cell(t, tab, 0, 12), cell(t, tab, 1, 12)
	r40, r70 := fpmG1n40/fpmS6n40, fpmG1n70/fpmS6n70
	if r40 < 7 || r40 > 13 {
		t.Errorf("in-memory G1:S6 = %v, want ≈9", r40)
	}
	if r70 < 3 || r70 > 6.5 {
		t.Errorf("out-of-core G1:S6 = %v, want ≈4.5", r70)
	}
	if r70 >= r40 {
		t.Error("G1 share must shrink relative to sockets out-of-core")
	}
}

func TestFigure6Shape(t *testing.T) {
	m := buildIGModels(t)
	tab, err := Figure6(m, 60)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 24 {
		t.Fatalf("rows = %d, want 24 processes", len(tab.Rows))
	}
	// Find the GTX680 row: under CPM it must be the slowest by a margin;
	// under FPM it must be near the median.
	var gtxCPM, gtxFPM, maxOtherCPM, maxFPM float64
	for i, row := range tab.Rows {
		cpmT, fpmT := cell(t, tab, i, 3), cell(t, tab, i, 5)
		if row[1] == "GTX680" {
			gtxCPM, gtxFPM = cpmT, fpmT
		} else if cpmT > maxOtherCPM {
			maxOtherCPM = cpmT
		}
		if fpmT > maxFPM {
			maxFPM = fpmT
		}
	}
	if gtxCPM < 1.4*maxOtherCPM {
		t.Errorf("CPM should overload GTX680: %v vs next %v", gtxCPM, maxOtherCPM)
	}
	// FPM's slowest process beats CPM's slowest (the paper's 40% cut).
	if maxFPM >= gtxCPM {
		t.Errorf("FPM slowest %v should beat CPM slowest %v", maxFPM, gtxCPM)
	}
	_ = gtxFPM
}

func TestFigure7Shape(t *testing.T) {
	m := buildIGModels(t)
	tab, err := Figure7(m, []int{20, 70})
	if err != nil {
		t.Fatal(err)
	}
	homS, cpmS, fpmS := cell(t, tab, 1, 1), cell(t, tab, 1, 2), cell(t, tab, 1, 3)
	if !(fpmS < cpmS && cpmS < homS) {
		t.Errorf("large-n ordering wrong: hom %v, cpm %v, fpm %v", homS, cpmS, fpmS)
	}
	// Magnitudes: FPM ≈ 25-40% below CPM, ≈ 40-60% below homogeneous.
	if cut := 1 - fpmS/cpmS; cut < 0.15 || cut > 0.5 {
		t.Errorf("FPM vs CPM cut = %v, want ≈0.3", cut)
	}
	if cut := 1 - fpmS/homS; cut < 0.35 || cut > 0.7 {
		t.Errorf("FPM vs homogeneous cut = %v, want ≈0.45", cut)
	}
	// Small problems: CPM and FPM comparable (both fit GPU memory).
	cpmSmall, fpmSmall := cell(t, tab, 0, 2), cell(t, tab, 0, 3)
	if fpmSmall > 1.5*cpmSmall {
		t.Errorf("small-n FPM %v should be comparable to CPM %v", fpmSmall, cpmSmall)
	}
}

func TestFigure2Shape(t *testing.T) {
	tab, err := Figure2(hw.NewIGNode(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	last := len(tab.Rows) - 1
	s5, s6 := cell(t, tab, last, 1), cell(t, tab, last, 2)
	if s6 < 95 || s6 > 115 {
		t.Errorf("s6 plateau = %v Gflops, want ≈105", s6)
	}
	if s5 >= s6 {
		t.Errorf("s5 %v must stay below s6 %v", s5, s6)
	}
	// Speed rises with size.
	if first := cell(t, tab, 0, 2); first >= s6 {
		t.Errorf("s6 should rise: first %v, last %v", first, s6)
	}
}

func TestFigure3Shape(t *testing.T) {
	tab, err := Figure3(hw.NewIGNode(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Find the last in-memory row and the last row overall.
	var lastIn = -1
	for i, row := range tab.Rows {
		if row[4] == "yes" {
			lastIn = i
		}
	}
	if lastIn < 0 {
		t.Fatal("no in-memory rows")
	}
	v1in, v2in := cell(t, tab, lastIn, 1), cell(t, tab, lastIn, 2)
	if ratio := v2in / v1in; ratio < 1.7 || ratio > 3 {
		t.Errorf("in-memory v2/v1 = %v, want ≈2", ratio)
	}
	last := len(tab.Rows) - 1
	v2out, v3out := cell(t, tab, last, 2), cell(t, tab, last, 3)
	if v2out > 0.7*v2in {
		t.Errorf("v2 cliff missing: %v in-memory vs %v out-of-core", v2in, v2out)
	}
	if gain := v3out / v2out; gain < 1.1 || gain > 1.8 {
		t.Errorf("overlap gain = %v, want ≈1.3", gain)
	}
}

func TestFigure5Shape(t *testing.T) {
	tab, err := Figure5(hw.NewIGNode(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	var sawCPU, sawGPU bool
	for i, row := range tab.Rows {
		excl, s10, s5 := cell(t, tab, i, 2), cell(t, tab, i, 3), cell(t, tab, i, 4)
		switch row[0] {
		case "cpu":
			sawCPU = true
			// CPUs barely affected: within a few percent.
			for _, s := range []float64{s10, s5} {
				if s < 0.93*excl || s > 1.05*excl {
					t.Errorf("cpu row %d: contended %v vs exclusive %v", i, s, excl)
				}
			}
		case "gpu":
			sawGPU = true
			// GPU drops 7-15%.
			for _, s := range []float64{s10, s5} {
				drop := 1 - s/excl
				if drop < 0.04 || drop > 0.2 {
					t.Errorf("gpu row %d: drop = %v, want 7-15%%", i, drop)
				}
			}
		}
	}
	if !sawCPU || !sawGPU {
		t.Error("figure5 missing cpu or gpu rows")
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	if len(names) < 10 {
		t.Errorf("registry has %d entries", len(names))
	}
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			t.Error("names not sorted")
		}
	}
	if _, err := Run("nope", hw.NewIGNode(), testOpts()); err == nil {
		t.Error("unknown experiment accepted")
	}
	// Spot-run one registry entry end to end.
	tab, err := Run("ablation-dma", hw.NewIGNode(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "ablation-dma" || len(tab.Rows) == 0 {
		t.Errorf("bad table %+v", tab)
	}
}

func TestAblationPartitioners(t *testing.T) {
	m := buildIGModels(t)
	tab, err := AblationPartitioners(m, []int{60})
	if err != nil {
		t.Fatal(err)
	}
	bis, cpm := cell(t, tab, 0, 1), cell(t, tab, 0, 2)
	if bis > 0.1 {
		t.Errorf("FPM imbalance = %v", bis)
	}
	if cpm < 2*bis && cpm < 0.2 {
		t.Errorf("CPM should be visibly unbalanced at n=60: %v vs %v", cpm, bis)
	}
}

func TestAblationSocketFPM(t *testing.T) {
	tab, err := AblationSocketFPM(hw.NewIGNode(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		group, naive := cell(t, tab, i, 1), cell(t, tab, i, 2)
		if naive <= group {
			t.Errorf("row %d: naive %v should overestimate group %v", i, naive, group)
		}
	}
}

func TestAblationDMA(t *testing.T) {
	tab, err := AblationDMAEngines(hw.NewIGNode(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := range tab.Rows {
		two, one := cell(t, tab, i, 1), cell(t, tab, i, 2)
		if two < one {
			t.Errorf("row %d: 2 DMA engines (%v) should not lose to 1 (%v)", i, two, one)
		}
	}
}

func TestAblationBlockingFactor(t *testing.T) {
	tab, err := AblationBlockingFactor(hw.NewIGNode(), []int{320, 640}, 60, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Smaller b doubles the iteration count and with it the total
	// host↔device traffic of the out-of-core kernels, so the run is slower
	// (the broadcast byte volume is b-invariant; only its latency grows).
	total320, total640 := cell(t, tab, 0, 2), cell(t, tab, 1, 2)
	if total320 <= total640 {
		t.Errorf("b=320 total %v should exceed b=640 total %v", total320, total640)
	}
	// Broadcast byte volume is b-invariant up to layout differences; the
	// comm columns must be within ~20% of each other.
	comm320, comm640 := cell(t, tab, 0, 3), cell(t, tab, 1, 3)
	if comm320 < 0.8*comm640 || comm320 > 1.3*comm640 {
		t.Errorf("comm volumes diverge: b=320 %v vs b=640 %v", comm320, comm640)
	}
}

func TestAblationDynamic(t *testing.T) {
	m := buildIGModels(t)
	tab, err := AblationDynamic(m, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 strategies", len(tab.Rows))
	}
	// Row order: homogeneous, CPM, FPM.
	movedHom, movedCPM, movedFPM := cell(t, tab, 0, 2), cell(t, tab, 1, 2), cell(t, tab, 2, 2)
	if !(movedFPM < movedCPM && movedCPM < movedHom) {
		t.Errorf("migration ordering wrong: hom %v, cpm %v, fpm %v", movedHom, movedCPM, movedFPM)
	}
	totalHom, totalFPM := cell(t, tab, 0, 3), cell(t, tab, 2, 3)
	if totalFPM > totalHom {
		t.Errorf("FPM start (%v s) should beat homogeneous start (%v s)", totalFPM, totalHom)
	}
	// All strategies converge: final imbalance small.
	for i := 0; i < 3; i++ {
		if fin := cell(t, tab, i, 5); fin > 0.2 {
			t.Errorf("row %d final imbalance = %v", i, fin)
		}
	}
	// The FPM start is balanced from the first iteration.
	if first := cell(t, tab, 2, 4); first > 0.3 {
		t.Errorf("FPM first-iteration imbalance = %v", first)
	}
}

func TestAblationLayout(t *testing.T) {
	m := buildIGModels(t)
	tab, err := AblationLayout(m, []int{40})
	if err != nil {
		t.Fatal(err)
	}
	colComm, oneComm := cell(t, tab, 0, 1), cell(t, tab, 0, 2)
	if oneComm <= colComm {
		t.Errorf("1D comm %v should exceed column-based %v", oneComm, colComm)
	}
	colTotal, oneTotal := cell(t, tab, 0, 3), cell(t, tab, 0, 4)
	if oneTotal < colTotal {
		t.Errorf("1D total %v should not beat column-based %v", oneTotal, colTotal)
	}
}

func TestTable1(t *testing.T) {
	tab, err := Table1(hw.NewIGNode(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 20 {
		t.Errorf("rows = %d, want full spec", len(tab.Rows))
	}
	var sawGTX, sawC870 bool
	for _, r := range tab.Rows {
		if strings.Contains(r[0], "GTX680") {
			sawGTX = true
		}
		if strings.Contains(r[0], "TeslaC870") {
			sawC870 = true
		}
	}
	if !sawGTX || !sawC870 {
		t.Error("GPU rows missing")
	}
	if _, err := Table1(&hw.Node{}, testOpts()); err == nil {
		t.Error("invalid node accepted")
	}
}

func TestRenderMarkdown(t *testing.T) {
	tab := &Table{ID: "x", Title: "demo", Columns: []string{"a", "b"}, Notes: []string{"note text"}}
	tab.AddRow(1, 2)
	var buf bytes.Buffer
	if err := tab.RenderMarkdown(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"### x: demo", "| a | b |", "| --- | --- |", "| 1 | 2 |", "> note text"} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestAblationModelAccuracy(t *testing.T) {
	tab, err := AblationModelAccuracy(hw.NewIGNode(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	fpmMean := cell(t, tab, 0, 1)
	cpmMean := cell(t, tab, 2, 1)
	if fpmMean > 10 {
		t.Errorf("FPM mean error = %v%%, want small", fpmMean)
	}
	if cpmMean < 3*fpmMean {
		t.Errorf("CPM mean error %v%% should dwarf FPM's %v%%", cpmMean, fpmMean)
	}
	cpmMax := cell(t, tab, 2, 2)
	if cpmMax < 25 {
		t.Errorf("CPM max error = %v%%, want the out-of-core misprediction", cpmMax)
	}
}

func TestAblationContentionModels(t *testing.T) {
	tab, err := AblationContentionModels(hw.NewIGNode(), []int{60}, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	exImb, awImb := cell(t, tab, 0, 1), cell(t, tab, 0, 2)
	// At out-of-core sizes the contention-aware models should not be worse.
	if awImb > exImb*1.2 {
		t.Errorf("aware imbalance %v much worse than exclusive %v", awImb, exImb)
	}
	// Both runs complete in comparable total time.
	exT, awT := cell(t, tab, 0, 3), cell(t, tab, 0, 4)
	if awT > 1.2*exT || exT > 1.2*awT {
		t.Errorf("totals diverge: %v vs %v", exT, awT)
	}
}

func TestExperimentsRunOnAlternativePlatform(t *testing.T) {
	// The whole pipeline must generalise beyond the paper's exact testbed:
	// here two of the test node's sockets, each hosting one of two
	// identical GPUs.
	node := hw.NewTestNode()
	sock, gpu := *node.Sockets[0], *node.GPUs[0]
	sock.Name, gpu.Name = "testcpu1", "testgpu1"
	node.Sockets = append(node.Sockets, &sock)
	node.GPUs = append(node.GPUs, &gpu)
	node.GPUSocket = []int{0, 1}
	m, err := BuildModels(node, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Devices()) != 4 { // 2 GPUs + 2 sockets
		t.Fatalf("devices = %d", len(m.Devices()))
	}
	tab, err := Table2(m, []int{40, 90})
	if err != nil {
		t.Fatal(err)
	}
	// The hybrid-FPM column still wins on both sizes.
	for i := range tab.Rows {
		cpu, hyb := cell(t, tab, i, 1), cell(t, tab, i, 3)
		if hyb >= cpu {
			t.Errorf("row %d: hybrid %v should beat CPUs %v", i, hyb, cpu)
		}
	}
	// Partitioning gives the identical GPUs identical shares.
	part, err := m.PartitionFPM(60)
	if err != nil {
		t.Fatal(err)
	}
	u := part.Units()
	if d := u[0] - u[1]; d < -60 || d > 60 {
		t.Errorf("identical GPUs got %v", u[:2])
	}
}

func TestAblationCommModels(t *testing.T) {
	m := buildIGModels(t)
	tab, err := AblationCommModels(m, []int{40})
	if err != nil {
		t.Fatal(err)
	}
	scalar, sched := cell(t, tab, 0, 1), cell(t, tab, 0, 2)
	if scalar <= 0 || sched <= 0 {
		t.Errorf("comm times (%v, %v) must be positive", scalar, sched)
	}
	// Both models within an order of magnitude.
	if r := sched / scalar; r < 0.1 || r > 10 {
		t.Errorf("models diverge %vx", r)
	}
	// Communication stays a minor fraction of the run.
	compute := cell(t, tab, 0, 3)
	if sched > 0.3*compute {
		t.Errorf("comm %v not minor vs compute %v", sched, compute)
	}
}

func TestAblationNoise(t *testing.T) {
	tab, err := AblationNoise(hw.NewIGNode(), 60, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Share spread stays small at every noise level (reliability loop).
	for i := range tab.Rows {
		spread := cell(t, tab, i, 2)
		if spread > 5 {
			t.Errorf("row %d: share spread = %v%%", i, spread)
		}
	}
	// Spread at the highest noise >= spread at the lowest.
	if lo, hi := cell(t, tab, 0, 2), cell(t, tab, 2, 2); hi < lo {
		t.Errorf("noise sensitivity inverted: %v%% at low vs %v%% at high", lo, hi)
	}
}

func TestFigure4Schedule(t *testing.T) {
	tab, err := Figure4(hw.NewIGNode(), testOpts())
	if err != nil {
		t.Fatal(err)
	}
	var gtxLanes, c870Lanes map[string]bool
	gtxLanes, c870Lanes = map[string]bool{}, map[string]bool{}
	for i, row := range tab.Rows {
		start, end := cell(t, tab, i, 3), cell(t, tab, i, 4)
		if end < start {
			t.Errorf("row %d: end %v before start %v", i, end, start)
		}
		switch row[0] {
		case "GTX680":
			gtxLanes[row[1]] = true
		case "TeslaC870":
			c870Lanes[row[1]] = true
		}
	}
	if len(gtxLanes) != 3 {
		t.Errorf("GTX680 lanes = %v, want h2d/compute/d2h", gtxLanes)
	}
	if len(c870Lanes) != 2 {
		t.Errorf("C870 lanes = %v, want shared h2d + compute", c870Lanes)
	}
	if _, err := Figure4(&hw.Node{}, testOpts()); err == nil {
		t.Error("invalid node accepted")
	}
}

func TestClusterScaling(t *testing.T) {
	tab, err := ClusterScaling(hw.NewIGNode(), 80, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// FPM beats homogeneous at every scale.
	for i := range tab.Rows {
		fpmT, homT := cell(t, tab, i, 1), cell(t, tab, i, 2)
		if fpmT >= homT {
			t.Errorf("row %d: FPM %v should beat homogeneous %v", i, fpmT, homT)
		}
	}
	// Doubling the nodes roughly halves the time (allowing the in-memory
	// superlinear effect and comm overheads).
	t1, t2, t4 := cell(t, tab, 0, 1), cell(t, tab, 1, 1), cell(t, tab, 2, 1)
	if s := t1 / t2; s < 1.6 || s > 2.6 {
		t.Errorf("2-node speedup = %v", s)
	}
	if s := t1 / t4; s < 3 || s > 6 {
		t.Errorf("4-node speedup = %v", s)
	}
	// Inter-node communication appears from 2 nodes on.
	if cell(t, tab, 1, 4) <= 0 {
		t.Error("no inter-node communication on 2 nodes")
	}
}

// Property: across random problem sizes, the FPM partition of the preset
// node always (a) sums exactly, (b) gives the fast GPU the largest share,
// and (c) realises a better-or-equal makespan than CPM in simulation.
func TestPipelineProperty(t *testing.T) {
	m := buildIGModels(t)
	procs, err := app.Processes(m.Node, app.Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{17, 33, 47, 59, 71} {
		fpmPart, err := m.PartitionFPM(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if fpmPart.Total != n*n {
			t.Errorf("n=%d: total %d", n, fpmPart.Total)
		}
		u := fpmPart.Units()
		max := 0
		for _, v := range u {
			if v > max {
				max = v
			}
		}
		if u[1] != max { // GTX680 is device 1
			t.Errorf("n=%d: GTX680 not dominant: %v", n, u)
		}
		fpmRun, err := runWithUnits(m, procs, u, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		cpmPart, err := m.PartitionCPM(n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		cpmRun, err := runWithUnits(m, procs, cpmPart.Units(), n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// FPM never loses by more than rounding noise at any size.
		if fpmRun.TotalSeconds > 1.1*cpmRun.TotalSeconds {
			t.Errorf("n=%d: FPM %v s worse than CPM %v s", n, fpmRun.TotalSeconds, cpmRun.TotalSeconds)
		}
	}
}

func TestExperimentErrorPropagation(t *testing.T) {
	bad := &hw.Node{} // fails validation
	opts := testOpts()
	for name, f := range map[string]func() error{
		"figure2": func() error { _, err := Figure2(bad, opts); return err },
		"figure3": func() error { _, err := Figure3(bad, opts); return err },
		"figure4": func() error { _, err := Figure4(bad, opts); return err },
		"figure5": func() error { _, err := Figure5(bad, opts); return err },
		"models":  func() error { _, err := BuildModels(bad, opts); return err },
		"noise":   func() error { _, err := AblationNoise(bad, 60, opts); return err },
		"accuracy": func() error {
			_, err := AblationModelAccuracy(bad, opts)
			return err
		},
	} {
		if err := f(); err == nil {
			t.Errorf("%s accepted an invalid node", name)
		}
	}
	// Figure5 needs at least one GPU.
	noGPU := hw.NewIGNode()
	noGPU.GPUs = nil
	noGPU.GPUSocket = nil
	if _, err := Figure5(noGPU, opts); err == nil {
		t.Error("figure5 without GPUs accepted")
	}
	if _, err := Figure4(noGPU, opts); err == nil {
		t.Error("figure4 without GPUs accepted")
	}
}

func TestCPMDevicesProbe(t *testing.T) {
	m := buildIGModels(t)
	devs, err := m.CPMDevices(CPMRefBlocks)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range devs {
		// Constant models: speed at any size equals the probe.
		if d.Model.Speed(10) != d.Model.Speed(4000) {
			t.Errorf("device %d not constant", i)
		}
		// The probe matches the FPM at the reference size.
		if want := m.Devices()[i].Model.Speed(CPMRefBlocks); d.Model.Speed(1) != want {
			t.Errorf("device %d probe mismatch", i)
		}
	}
}

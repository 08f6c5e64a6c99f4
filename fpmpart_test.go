package fpmpart

import (
	"math"
	"strings"
	"testing"
)

func TestFacadePartitioningRoundTrip(t *testing.T) {
	// A GPU-like device with a memory cliff and a flat CPU-like device.
	gpu := MustModel([]ModelPoint{
		{Size: 100, Speed: 900}, {Size: 1300, Speed: 950}, {Size: 1400, Speed: 450},
		{Size: 4000, Speed: 430},
	})
	cpu := MustModel([]ModelPoint{{Size: 100, Speed: 80}, {Size: 4000, Speed: 105}})
	devs := []Device{{Name: "gpu", Model: gpu}, {Name: "cpu", Model: cpu}}

	res, err := PartitionFPM(devs, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 3000 {
		t.Errorf("total = %d", res.Total)
	}
	if res.Imbalance() > 0.05 {
		t.Errorf("FPM imbalance = %v", res.Imbalance())
	}
	// CPM probed in the GPU's fast region overloads it.
	cpmRes, err := PartitionCPM(devs, 3000, 500)
	if err != nil {
		t.Fatal(err)
	}
	if cpmRes.Units()[0] <= res.Units()[0] {
		t.Errorf("CPM gpu %d should exceed FPM gpu %d", cpmRes.Units()[0], res.Units()[0])
	}
	hom, err := PartitionHomogeneous(devs, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if u := hom.Units(); u[0] != 1500 || u[1] != 1500 {
		t.Errorf("homogeneous units = %v", u)
	}
}

func TestFacadeModelHelpers(t *testing.T) {
	m, err := ModelFromTimings([]TimeSample{{Size: 100, Seconds: 1}, {Size: 200, Seconds: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Speed(200); math.Abs(got-200) > 1e-9 {
		t.Errorf("speed = %v", got)
	}
	r, err := ReadModel(strings.NewReader("10 100\n20 150\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Speed(15); math.Abs(got-125) > 1e-9 {
		t.Errorf("parsed speed = %v", got)
	}
	c, err := NewConstantModel(42)
	if err != nil {
		t.Fatal(err)
	}
	if c.Speed(1e9) != 42 {
		t.Error("constant model broken")
	}
	if _, err := Sizes(10, 100, 4, "geometric"); err != nil {
		t.Error(err)
	}
	if _, err := NewModel(nil); err == nil {
		t.Error("empty model accepted")
	}
}

func TestFacadeLayout(t *testing.T) {
	l, err := NewLayout([]float64{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	bl, err := l.Discretize(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := bl.Validate(); err != nil {
		t.Error(err)
	}
}

func TestFacadePlatformAndExperiments(t *testing.T) {
	node := NewIGNode()
	if err := node.Validate(); err != nil {
		t.Fatal(err)
	}
	procs, err := HybridProcesses(node)
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) != 24 {
		t.Errorf("hybrid processes = %d", len(procs))
	}
	names := Experiments()
	found := map[string]bool{}
	for _, n := range names {
		found[n] = true
	}
	for _, want := range []string{"figure2", "figure3", "figure5", "figure6", "figure7", "table2", "table3"} {
		if !found[want] {
			t.Errorf("experiment %q missing from registry", want)
		}
	}
	models, err := BuildNodeModels(node, ModelOptions{Seed: 5, Points: 8})
	if err != nil {
		t.Fatal(err)
	}
	devs := models.Devices()
	if len(devs) != 6 {
		t.Errorf("devices = %d", len(devs))
	}
	res, err := PartitionFPM(devs, 40*40)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 1600 {
		t.Errorf("partition total = %d", res.Total)
	}
	// The fast GPU must receive the largest share in-memory.
	max := 0
	for _, u := range res.Units() {
		if u > max {
			max = u
		}
	}
	if res.Units()[1] != max {
		t.Errorf("GTX680 should dominate at n=40: %v", res.Units())
	}
}

func TestFacadeRunExperiment(t *testing.T) {
	tab, err := RunExperiment("ablation-dma", NewIGNode(), ModelOptions{Seed: 1, Points: 8})
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "ablation-dma" || len(tab.Rows) == 0 {
		t.Errorf("unexpected table %+v", tab)
	}
	if _, err := RunExperiment("no-such", NewIGNode(), ModelOptions{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFacadeHierarchical(t *testing.T) {
	devs := []Device{
		{Name: "fast", Model: MustModel([]ModelPoint{{Size: 10, Speed: 40}, {Size: 1000, Speed: 44}})},
		{Name: "slow", Model: MustModel([]ModelPoint{{Size: 10, Speed: 10}, {Size: 1000, Speed: 11}})},
	}
	h, err := PartitionHierarchical([][]Device{devs, devs}, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if d := h.GroupUnits[0] - h.GroupUnits[1]; d < -50 || d > 50 {
		t.Errorf("identical groups got %v", h.GroupUnits)
	}
}

func TestFacadeMonotoneCubic(t *testing.T) {
	m, err := NewMonotoneCubicModel([]ModelPoint{
		{Size: 10, Speed: 50}, {Size: 100, Speed: 100}, {Size: 1000, Speed: 110},
	})
	if err != nil {
		t.Fatal(err)
	}
	if s := m.Speed(55); s < 50 || s > 100 {
		t.Errorf("cubic speed out of bounds: %v", s)
	}
	// Cubic models partition via the generic FPM solver.
	res, err := PartitionFPM([]Device{
		{Name: "cubic", Model: m},
		{Name: "const", Model: MustModel([]ModelPoint{{Size: 10, Speed: 50}, {Size: 1000, Speed: 50}})},
	}, 800)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 800 {
		t.Errorf("total = %d", res.Total)
	}
}

func TestFacadeAdaptiveAndDynamic(t *testing.T) {
	k := &FuncKernel{KernelName: "lin", F: func(x float64) (float64, error) { return x / 10, nil }}
	m, rep, err := BuildModelAdaptive(k, 10, 1000, AdaptiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Speed(500) < 9 || m.Speed(500) > 11 {
		t.Errorf("adaptive model speed %v", m.Speed(500))
	}
	if rep.TotalRuns == 0 {
		t.Error("no measurements recorded")
	}
	tr, err := RunDynamic(func(d, u int) float64 {
		return float64(u) * []float64{0.5, 1}[d]
	}, []int{50, 50}, 8, DynamicOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.FinalImbalance() > 0.2 {
		t.Errorf("dynamic did not converge: %v", tr.FinalImbalance())
	}
}

func TestFacadeGPUKernelSchedule(t *testing.T) {
	node := NewIGNode()
	var tl ScheduleTimeline
	makespan, err := GPUKernelSchedule(node.GPUs[1], node.BlockSize, node.ElemBytes, 45, 45, &tl)
	if err != nil {
		t.Fatal(err)
	}
	if makespan <= 0 || len(tl.Spans()) == 0 {
		t.Errorf("makespan %v, spans %d", makespan, len(tl.Spans()))
	}
	if err := tl.Validate(); err != nil {
		t.Error(err)
	}
}

func TestFacadeStencil(t *testing.T) {
	g, err := NewStencilGrid(24, 16)
	if err != nil {
		t.Fatal(err)
	}
	g.FillSine()
	want, err := RunStencilSequential(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, res, err := RunStencil(g, []int{10, 14}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := func() float64 {
		var m float64
		for i := range got.Data {
			if v := got.Data[i] - want.Data[i]; v > m {
				m = v
			} else if -v > m {
				m = -v
			}
		}
		return m
	}(); d != 0 {
		t.Errorf("stencil results differ by %v", d)
	}
	if res.Iterations != 4 {
		t.Errorf("iterations = %d", res.Iterations)
	}
}

func TestFacadeDiagnostics(t *testing.T) {
	m := MustModel([]ModelPoint{
		{Size: 100, Speed: 50}, {Size: 110, Speed: 100}, {Size: 500, Speed: 100},
	})
	inv := DiagnoseModel(m)
	if len(inv) != 1 {
		t.Fatalf("inversions = %v", inv)
	}
	if d := DescribeModel(m); !strings.Contains(d, "inversion") {
		t.Errorf("description missing inversions: %s", d)
	}
}

func TestFacadeTelemetry(t *testing.T) {
	reg := Telemetry()
	if reg.Enabled() {
		t.Fatal("telemetry enabled by default")
	}
	// Disabled: partitioning must record nothing.
	gpu := MustModel([]ModelPoint{{Size: 100, Speed: 900}, {Size: 4000, Speed: 800}})
	cpu := MustModel([]ModelPoint{{Size: 100, Speed: 80}, {Size: 4000, Speed: 105}})
	devs := []Device{{Name: "gpu", Model: gpu}, {Name: "cpu", Model: cpu}}
	if _, err := PartitionFPM(devs, 2000); err != nil {
		t.Fatal(err)
	}
	before := reg.Snapshot()["partition_runs_total{algorithm=\"fpm\"}"]

	var events strings.Builder
	EnableTelemetry(true)
	reg.SetEventLog(NewTelemetryEventLog(&events))
	defer func() {
		reg.SetEventLog(nil)
		EnableTelemetry(false)
	}()
	res, err := PartitionFPM(devs, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations <= 0 || !res.Converged {
		t.Errorf("diagnostics: iterations=%d converged=%v", res.Iterations, res.Converged)
	}
	after := reg.Snapshot()["partition_runs_total{algorithm=\"fpm\"}"]
	if before == after {
		t.Errorf("enabled run did not move partition_runs_total (%v -> %v)", before, after)
	}
	if !strings.Contains(events.String(), "partition.fpm.iteration") {
		t.Error("no per-iteration events in the log")
	}

	// Chrome export of a traced hybrid run via the facade.
	node := NewIGNode()
	models, err := BuildNodeModels(node, ModelOptions{Seed: 1, Version: KernelV3})
	if err != nil {
		t.Fatal(err)
	}
	part, err := PartitionFPM(models.Devices(), 40*40)
	if err != nil {
		t.Fatal(err)
	}
	_, tl, err := SimulateHybridTraced(models, part.Units(), 40, 2)
	if err != nil {
		t.Fatal(err)
	}
	ct := NewChromeTrace()
	ct.AddTimelineByLane(tl)
	var buf strings.Builder
	if err := ct.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\"traceEvents\"") || !strings.Contains(buf.String(), "h2d") {
		t.Error("Chrome trace missing traceEvents or engine lanes")
	}
}

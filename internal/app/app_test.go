package app

import (
	"math"
	"testing"

	"fpmpart/internal/gpukernel"
	"fpmpart/internal/hw"
	"fpmpart/internal/layout"
)

func TestProcessesCPUOnly(t *testing.T) {
	node := hw.NewIGNode()
	ps, err := Processes(node, CPUOnly)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 24 {
		t.Fatalf("processes = %d, want 24", len(ps))
	}
	for _, p := range ps {
		if p.Kind != CPUCore || p.GPU != -1 {
			t.Errorf("CPU-only run has non-CPU process %+v", p)
		}
	}
	active := ActiveCPUCores(node, ps)
	for s, a := range active {
		if a != 6 {
			t.Errorf("socket %d active = %d, want 6", s, a)
		}
	}
}

func TestProcessesHybrid(t *testing.T) {
	node := hw.NewIGNode()
	ps, err := Processes(node, Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 24 {
		t.Fatalf("processes = %d, want 24 (22 CPU + 2 GPU hosts)", len(ps))
	}
	var gpuHosts, cpuCores int
	for _, p := range ps {
		switch p.Kind {
		case GPUHost:
			gpuHosts++
		case CPUCore:
			cpuCores++
		}
	}
	if gpuHosts != 2 || cpuCores != 22 {
		t.Errorf("hosts=%d cores=%d, want 2/22", gpuHosts, cpuCores)
	}
	active := ActiveCPUCores(node, ps)
	// Sockets 0 and 1 host GPUs: 5 active CPU cores; sockets 2, 3: 6.
	want := []int{5, 5, 6, 6}
	for s := range want {
		if active[s] != want[s] {
			t.Errorf("socket %d active = %d, want %d", s, active[s], want[s])
		}
	}
	busy := GPUBusySockets(node, ps)
	if !busy[0] || !busy[1] || busy[2] || busy[3] {
		t.Errorf("gpu busy = %v", busy)
	}
	// Ranks are dense and ordered.
	for i, p := range ps {
		if p.Rank != i {
			t.Errorf("rank %d at index %d", p.Rank, i)
		}
	}
}

func TestGPUProcess(t *testing.T) {
	node := hw.NewIGNode()
	p, err := GPUProcess(node, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Kind != GPUHost || p.GPU != 1 || p.Name != "GTX680" || p.Socket != 1 {
		t.Errorf("process %+v", p)
	}
	if _, err := GPUProcess(node, 5); err == nil {
		t.Error("out-of-range GPU accepted")
	}
	if _, err := GPUProcess(&hw.Node{}, 0); err == nil {
		t.Error("invalid node accepted")
	}
}

func TestKindString(t *testing.T) {
	if CPUCore.String() != "cpu-core" || GPUHost.String() != "gpu-host" {
		t.Error("kind strings wrong")
	}
}

// uniformLayout builds an n×n block layout split evenly among p processes.
func uniformLayout(t *testing.T, p, n int) *layout.BlockLayout {
	t.Helper()
	areas := make([]float64, p)
	for i := range areas {
		areas[i] = 1
	}
	l, err := layout.Continuous(areas)
	if err != nil {
		t.Fatal(err)
	}
	bl, err := l.Discretize(n)
	if err != nil {
		t.Fatal(err)
	}
	return bl
}

func TestSimulateCPUOnly(t *testing.T) {
	node := hw.NewIGNode()
	ps, err := Processes(node, CPUOnly)
	if err != nil {
		t.Fatal(err)
	}
	bl := uniformLayout(t, len(ps), 40)
	res, err := Simulate(node, ps, bl, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ComputeSeconds <= 0 || res.TotalSeconds < res.ComputeSeconds {
		t.Errorf("result %+v", res)
	}
	// Equal areas on equal cores balance up to the integer-rectangle
	// rounding of the layout (a few blocks per process).
	if im := res.Imbalance(); im > 0.2 {
		t.Errorf("imbalance = %v on homogeneous run", im)
	}
	// Sanity: Table II reports ~99.5 s for n=40 on 24 cores; our model
	// should land within a factor ~1.5.
	if res.TotalSeconds < 60 || res.TotalSeconds > 150 {
		t.Errorf("CPU-only n=40 time = %v s, want ≈80–100", res.TotalSeconds)
	}
}

func TestSimulateGPUOnlyMatchesTableII(t *testing.T) {
	node := hw.NewIGNode()
	p, err := GPUProcess(node, 1) // GTX680
	if err != nil {
		t.Fatal(err)
	}
	bl := uniformLayout(t, 1, 40)
	res, err := Simulate(node, []Process{p}, bl, SimOptions{Version: gpukernel.V2})
	if err != nil {
		t.Fatal(err)
	}
	// Table II: 74.2 s for n=40 on the GTX680; accept a generous band.
	if res.TotalSeconds < 40 || res.TotalSeconds > 130 {
		t.Errorf("GPU-only n=40 time = %v s, want ≈75", res.TotalSeconds)
	}
	// n=70 exceeds device memory: CPUs should win (Table II crossover).
	bl70 := uniformLayout(t, 1, 70)
	res70, err := Simulate(node, []Process{p}, bl70, SimOptions{Version: gpukernel.V2})
	if err != nil {
		t.Fatal(err)
	}
	cpuPs, _ := Processes(node, CPUOnly)
	cpu70, err := Simulate(node, cpuPs, uniformLayout(t, len(cpuPs), 70), SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cpu70.TotalSeconds >= res70.TotalSeconds {
		t.Errorf("crossover missing: CPU %v s vs GPU %v s at n=70", cpu70.TotalSeconds, res70.TotalSeconds)
	}
}

func TestSimulateContentionSlowsGPU(t *testing.T) {
	node := hw.NewIGNode()
	ps, err := Processes(node, Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	bl := uniformLayout(t, len(ps), 48)
	free, err := Simulate(node, ps, bl, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cont, err := Simulate(node, ps, bl, SimOptions{Contention: true})
	if err != nil {
		t.Fatal(err)
	}
	// Find the GTX680 host process in both runs.
	var freeT, contT float64
	for i, p := range ps {
		if p.Kind == GPUHost && p.GPU == 1 {
			freeT = free.PerProcess[i].ComputeSeconds
			contT = cont.PerProcess[i].ComputeSeconds
		}
	}
	ratio := contT / freeT
	want := 1 / node.GPUContention
	if math.Abs(ratio-want) > 1e-9 {
		t.Errorf("contention ratio = %v, want %v", ratio, want)
	}
}

func TestSimulateErrors(t *testing.T) {
	node := hw.NewIGNode()
	ps, _ := Processes(node, CPUOnly)
	bl := uniformLayout(t, len(ps), 12)
	if _, err := Simulate(node, ps[:3], bl, SimOptions{}); err == nil {
		t.Error("process/rect mismatch accepted")
	}
	bad := &layout.BlockLayout{N: 12, Rects: bl.Rects[:1]}
	if _, err := Simulate(node, ps[:1], bad, SimOptions{}); err == nil {
		t.Error("invalid layout accepted")
	}
	if _, err := Simulate(&hw.Node{}, ps, bl, SimOptions{}); err == nil {
		t.Error("invalid node accepted")
	}
}

func TestCommModel(t *testing.T) {
	bl := uniformLayout(t, 4, 16)
	cm := CommModel{Bandwidth: 1e9, Latency: 1e-3}
	tIter := cm.IterationTime(bl, 1024)
	wantBytes := bl.CommVolume() * 1024
	if math.Abs(tIter-(1e-3+wantBytes/1e9)) > 1e-12 {
		t.Errorf("comm time = %v", tIter)
	}
	if (CommModel{}).IterationTime(bl, 1024) != 0 {
		t.Error("zero comm model should cost nothing")
	}
	if DefaultComm().Bandwidth <= 0 {
		t.Error("default comm model invalid")
	}
}

func TestImbalanceEdgeCases(t *testing.T) {
	r := SimResult{PerProcess: []ProcessTime{{Area: 0, ComputeSeconds: 0}}}
	if !math.IsNaN(r.Imbalance()) {
		t.Error("no-work imbalance should be NaN")
	}
	r = SimResult{PerProcess: []ProcessTime{
		{Area: 10, ComputeSeconds: 2}, {Area: 10, ComputeSeconds: 4},
	}}
	if got := r.Imbalance(); math.Abs(got-1) > 1e-12 {
		t.Errorf("imbalance = %v, want 1", got)
	}
}

func TestSimulateWithScheduledNetwork(t *testing.T) {
	node := hw.NewIGNode()
	ps, err := Processes(node, CPUOnly)
	if err != nil {
		t.Fatal(err)
	}
	bl := uniformLayout(t, len(ps), 24)
	net := DefaultNetwork()
	sched, err := Simulate(node, ps, bl, SimOptions{Network: &net})
	if err != nil {
		t.Fatal(err)
	}
	if sched.CommSeconds <= 0 {
		t.Errorf("scheduled comm = %v", sched.CommSeconds)
	}
	scalar, err := Simulate(node, ps, bl, SimOptions{Comm: DefaultComm()})
	if err != nil {
		t.Fatal(err)
	}
	// Both models agree on order of magnitude (within ~10x either way).
	ratio := sched.CommSeconds / scalar.CommSeconds
	if ratio < 0.1 || ratio > 10 {
		t.Errorf("scheduled %v vs scalar %v comm diverge by %vx",
			sched.CommSeconds, scalar.CommSeconds, ratio)
	}
	// Compute part is identical.
	if sched.ComputeSeconds != scalar.ComputeSeconds {
		t.Error("comm model changed compute time")
	}
}

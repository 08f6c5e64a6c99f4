package app

import (
	"sort"
	"strings"
	"testing"

	"fpmpart/internal/gpukernel"
	"fpmpart/internal/hw"
	"fpmpart/internal/sim"
)

// timelineLanes returns the set of lanes of tl, failing the test when two
// spans of one lane overlap (a process or engine runs one task at a time).
func timelineLanes(t *testing.T, tl *sim.Timeline) map[string]bool {
	t.Helper()
	byLane := map[string][]sim.Span{}
	for _, s := range tl.Spans() {
		byLane[s.Lane] = append(byLane[s.Lane], s)
	}
	lanes := map[string]bool{}
	for lane, spans := range byLane {
		lanes[lane] = true
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		for i := 1; i < len(spans); i++ {
			if spans[i].Start < spans[i-1].End-1e-12 {
				t.Errorf("lane %s: %q overlaps %q", lane, spans[i].Label, spans[i-1].Label)
			}
		}
	}
	return lanes
}

func TestSimulateTracedLanesAndShape(t *testing.T) {
	node := hw.NewIGNode()
	ps, err := Processes(node, Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	bl := uniformLayout(t, len(ps), 40)
	opts := SimOptions{Version: gpukernel.V3, Comm: DefaultComm()}
	res, tl, err := SimulateTraced(node, ps, bl, opts, 3)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Simulate(node, ps, bl, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSeconds != plain.TotalSeconds {
		t.Errorf("traced result %v differs from plain %v", res.TotalSeconds, plain.TotalSeconds)
	}
	lanes := timelineLanes(t, tl)
	var haveCPU, haveHost, haveEngine bool
	for l := range lanes {
		switch {
		case strings.HasPrefix(l, "socket") && strings.Contains(l, "/core"):
			haveCPU = true
		case strings.HasSuffix(l, "/host"):
			haveHost = true
		case strings.HasSuffix(l, "/h2d") || strings.HasSuffix(l, "/compute"):
			haveEngine = true
		}
	}
	if !haveCPU || !haveHost || !haveEngine {
		t.Errorf("missing lane kinds (cpu=%v host=%v engine=%v) in %v",
			haveCPU, haveHost, haveEngine, lanes)
	}
	if !lanes["node/broadcast"] {
		t.Errorf("no broadcast lane in %v", lanes)
	}

	// Three traced iterations: the slot structure means the makespan is
	// 3 × (maxIter + commPerIter) = 3/40 of the full run.
	want := 3.0 / 40.0 * plain.TotalSeconds
	if got := tl.Makespan(); got < 0.99*want || got > 1.01*want {
		t.Errorf("traced makespan %v, want ≈%v", got, want)
	}

	// Unbounded tracing covers every iteration.
	_, full, err := SimulateTraced(node, ps, bl, opts, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := full.Makespan(); got < 0.99*plain.TotalSeconds || got > 1.01*plain.TotalSeconds {
		t.Errorf("full traced makespan %v, want ≈%v", got, plain.TotalSeconds)
	}
}

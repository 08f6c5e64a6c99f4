package hw

import (
	"testing"
)

// Calibration regression tests: the preset constants were tuned so the
// simulated platform reproduces the paper's figures (see DESIGN.md and
// EXPERIMENTS.md). These golden bands protect that calibration from
// accidental drift — if a model change moves a number outside its band,
// either the change is wrong or EXPERIMENTS.md needs re-deriving.

func gflops(v float64) float64 { return v / 1e9 }

func TestGoldenSocketCalibration(t *testing.T) {
	s := NewOpteron8439SE()
	cases := []struct {
		x          float64
		active     int
		lo, hi     float64 // Gflop/s band
		constraint string
	}{
		{60, 6, 65, 78, "Figure 2 small-size point"},
		{600, 6, 92, 104, "Figure 2 mid curve"},
		{1200, 6, 97, 107, "Figure 2 plateau ≈105"},
		{1200, 5, 82, 92, "Figure 2 five-core plateau"},
		{1200, 1, 17, 21, "single core ≈0.85·peak"},
	}
	for _, c := range cases {
		got := gflops(socketRate(s, c.x, c.active, 640))
		if got < c.lo || got > c.hi {
			t.Errorf("%s: s%d(%v) = %.1f Gflop/s, want [%v, %v]",
				c.constraint, c.active, c.x, got, c.lo, c.hi)
		}
	}
}

func TestGoldenNodeLevelRatios(t *testing.T) {
	// Table III anchors: in GPU memory the GTX680 is ≈9× a full socket;
	// out of core ≈4-5×; the C870 is ≈2× in-memory and ≈1.5× out-of-core.
	// These are checked on the raw cost models (kernel v2 at the app's
	// near-square shapes), mirroring internal/experiments assertions but at
	// the hw level so a calibration edit fails fast and locally.
	s := NewOpteron8439SE()
	s6at := func(x float64) float64 { return socketRate(s, x, 6, 640) }
	if r := gflops(s6at(900)); r < 95 || r > 106 {
		t.Errorf("socket anchor = %.1f", r)
	}
	gtx := NewGTX680()
	if mem := gtx.MemBytes / BlockBytes(640, 4); mem < 1250 || mem > 1350 {
		t.Errorf("GTX680 capacity = %v blocks, want ≈1310", mem)
	}
	c870 := NewTeslaC870()
	if mem := c870.MemBytes / BlockBytes(640, 4); mem < 930 || mem > 1010 {
		t.Errorf("C870 capacity = %v blocks, want ≈983", mem)
	}
	// DMA engine asymmetry — the structural driver of Figure 3's overlap
	// difference.
	if gtx.DMAEngines != 2 || c870.DMAEngines != 1 {
		t.Error("DMA engine counts changed")
	}
	// Contention coefficients: paper's 7-15% GPU drop, CPUs barely touched.
	n := NewIGNode()
	if n.GPUContention < 0.85 || n.GPUContention > 0.93 {
		t.Errorf("GPU contention = %v", n.GPUContention)
	}
	if n.CPUContention < 0.96 {
		t.Errorf("CPU contention = %v", n.CPUContention)
	}
}

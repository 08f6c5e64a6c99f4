package hw

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestBlockConstants(t *testing.T) {
	if got, want := BlockFlops(640), 2.0*640*640*640; got != want {
		t.Errorf("BlockFlops(640) = %v, want %v", got, want)
	}
	if got, want := BlockBytes(640, 4), 640.0*640*4; got != want {
		t.Errorf("BlockBytes = %v, want %v", got, want)
	}
}

func TestSocketEfficiencyRamp(t *testing.T) {
	s := NewOpteron8439SE()
	if e := s.efficiency(0); e != s.MinEff {
		t.Errorf("eff(0) = %v, want MinEff %v", e, s.MinEff)
	}
	// Half ramp at RampElems.
	want := s.MinEff + (s.MaxEff-s.MinEff)/2
	if e := s.efficiency(s.RampElems); math.Abs(e-want) > 1e-12 {
		t.Errorf("eff(ramp) = %v, want %v", e, want)
	}
	if e := s.efficiency(1e12); e < s.MaxEff-1e-3 {
		t.Errorf("eff(inf) = %v, want →%v", e, s.MaxEff)
	}
}

func TestSocketContentionMonotone(t *testing.T) {
	s := NewOpteron8439SE()
	prev := math.Inf(1)
	for c := 1; c <= s.Cores; c++ {
		f := s.contention(c)
		if f > prev {
			t.Errorf("contention(%d) = %v increased", c, f)
		}
		prev = f
	}
	if s.contention(1) != 1 || s.contention(0) != 1 {
		t.Error("single-core contention must be 1")
	}
}

func TestSocketRateCalibration(t *testing.T) {
	// Figure 2 levels: full socket plateau ≈ 100–110 Gflop/s, 5-core ≈
	// 88–100 Gflop/s, small problems (x≈60) around 60–80 Gflop/s.
	s := NewOpteron8439SE()
	s6 := s.SocketRate(1200, 6, 640)
	if s6 < 100e9 || s6 > 112e9 {
		t.Errorf("s6(1200) = %v Gflops, want ≈105", s6/1e9)
	}
	s5 := s.SocketRate(1200, 5, 640)
	if s5 < 85e9 || s5 > 100e9 {
		t.Errorf("s5(1200) = %v Gflops, want ≈92", s5/1e9)
	}
	if s5 >= s6 {
		t.Errorf("s5 %v >= s6 %v", s5, s6)
	}
	small := s.SocketRate(60, 6, 640)
	if small < 55e9 || small > 85e9 {
		t.Errorf("s6(60) = %v Gflops, want 60–80", small/1e9)
	}
	if small >= s6 {
		t.Error("speed should rise with problem size")
	}
}

func TestSocketKernelTimeEdges(t *testing.T) {
	s := NewOpteron8439SE()
	if s.KernelTime(0, 6, 640) != 0 {
		t.Error("zero work should take zero time")
	}
	if s.KernelTime(-5, 6, 640) != 0 {
		t.Error("negative work should take zero time")
	}
	// Requesting more active cores than exist clamps.
	a := s.KernelTime(100, 600, 640)
	b := s.KernelTime(100, 6, 640)
	if a != b {
		t.Errorf("over-subscription not clamped: %v vs %v", a, b)
	}
	// active < 1 clamps to 1.
	if s.KernelTime(100, 0, 640) != s.KernelTime(100, 1, 640) {
		t.Error("active=0 not clamped to 1")
	}
	if s.SocketRate(0, 6, 640) != 0 {
		t.Error("rate at zero work should be 0")
	}
}

func TestGPURateSaturationAndAlignment(t *testing.T) {
	g := NewGTX680()
	aligned := g.Rate(32*640, 32*640)
	if aligned < 0.9*g.PeakRate {
		t.Errorf("rate(32x32 blocks) = %v, want ≥ 0.9 peak", aligned)
	}
	misrow := g.Rate(32*640+1, 32*640)
	if math.Abs(misrow-aligned*g.MisalignPenalty) > 1e-3*aligned {
		t.Errorf("row misalignment penalty not applied: %v vs %v", misrow, aligned*g.MisalignPenalty)
	}
	miscol := g.Rate(32*640, 32*640+5)
	if miscol >= aligned {
		t.Error("column misalignment should reduce rate")
	}
	if small, big := g.Rate(32, 32), g.Rate(320*32, 320*32); small >= big {
		t.Errorf("rate should grow with tile area: %v vs %v", small, big)
	}
	if got := g.Rate(0, 0); got <= 0 {
		t.Errorf("degenerate rate = %v", got)
	}
}

func TestGPUTransferTimes(t *testing.T) {
	g := NewGTX680()
	if g.H2DTime(0) != 0 || g.D2HTime(0) != 0 {
		t.Error("zero-byte transfers must be free")
	}
	b := g.H2DBandwidth // one second's worth of bytes
	if got := g.H2DTime(b); math.Abs(got-(1+g.TransferLatency)) > 1e-12 {
		t.Errorf("H2D time = %v", got)
	}
	if g.H2DTime(1) <= g.TransferLatency {
		t.Error("latency must apply")
	}
}

func TestPresetsValidate(t *testing.T) {
	for _, n := range []*Node{NewIGNode(), NewTestNode()} {
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", n.Name, err)
		}
	}
}

func TestIGNodeShape(t *testing.T) {
	n := NewIGNode()
	if n.TotalCores() != 24 {
		t.Errorf("cores = %d, want 24", n.TotalCores())
	}
	if len(n.GPUs) != 2 {
		t.Fatalf("gpus = %d", len(n.GPUs))
	}
	// Memory limits in blocks: GTX680 2 GiB / 1.6384 MB/block ≈ 1310.
	blocks := n.GPUMemBlocks(1)
	if blocks < 1200 || blocks > 1400 {
		t.Errorf("GTX680 memory = %v blocks", blocks)
	}
	if n.GPUMemBlocks(0) >= blocks {
		t.Error("C870 must hold fewer blocks than GTX680")
	}
	if n.BlockFlops() != BlockFlops(640) || n.BlockBytes() != BlockBytes(640, 4) {
		t.Error("node block constants inconsistent")
	}
}

func TestNodeValidationErrors(t *testing.T) {
	mk := func(mutate func(*Node)) *Node {
		n := NewTestNode()
		mutate(n)
		return n
	}
	cases := map[string]*Node{
		"no sockets":     mk(func(n *Node) { n.Sockets = nil }),
		"bad block":      mk(func(n *Node) { n.BlockSize = 0 }),
		"bad elem":       mk(func(n *Node) { n.ElemBytes = 0 }),
		"bad gpu cont":   mk(func(n *Node) { n.GPUContention = 0 }),
		"big gpu cont":   mk(func(n *Node) { n.GPUContention = 1.5 }),
		"bad cpu cont":   mk(func(n *Node) { n.CPUContention = -1 }),
		"mapping len":    mk(func(n *Node) { n.GPUSocket = nil }),
		"mapping range":  mk(func(n *Node) { n.GPUSocket = []int{9} }),
		"socket invalid": mk(func(n *Node) { n.Sockets[0].Cores = 0 }),
		"gpu invalid":    mk(func(n *Node) { n.GPUs[0].MemBytes = 0 }),
		"dup socket": mk(func(n *Node) {
			n.GPUs = append(n.GPUs, NewGTX680())
			n.GPUSocket = []int{0, 0}
		}),
	}
	for name, n := range cases {
		if err := n.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestGPUValidationErrors(t *testing.T) {
	mk := func(mutate func(*GPU)) *GPU {
		g := NewGTX680()
		mutate(g)
		return g
	}
	cases := map[string]*GPU{
		"mem":      mk(func(g *GPU) { g.MemBytes = 0 }),
		"rate":     mk(func(g *GPU) { g.PeakRate = -1 }),
		"ramp":     mk(func(g *GPU) { g.RampElems = -1 }),
		"penalty":  mk(func(g *GPU) { g.MisalignPenalty = 0 }),
		"bw":       mk(func(g *GPU) { g.H2DBandwidth = 0 }),
		"lat":      mk(func(g *GPU) { g.TransferLatency = -1 }),
		"dma":      mk(func(g *GPU) { g.DMAEngines = 3 }),
		"overlap":  mk(func(g *GPU) { g.CopyComputeOverlap = 2 }),
		"launch":   mk(func(g *GPU) { g.KernelLaunch = -1 }),
		"d2h zero": mk(func(g *GPU) { g.D2HBandwidth = 0 }),
	}
	for name, g := range cases {
		if err := g.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

// Property: socket speed is monotone non-decreasing in problem size (the
// FPM partitioner's time-inversion relies on well-behaved CPU curves).
func TestSocketRateMonotoneProperty(t *testing.T) {
	s := NewOpteron8439SE()
	f := func(a, b uint16) bool {
		x1, x2 := float64(a)+1, float64(b)+1
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		return s.SocketRate(x1, 6, 640) <= s.SocketRate(x2, 6, 640)+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: socket kernel time scales superlinearly-at-worst with work and
// is always positive for positive work.
func TestSocketTimePositiveProperty(t *testing.T) {
	s := NewOpteron8439SE()
	f := func(a uint16, c uint8) bool {
		x := float64(a%5000) + 1
		active := int(c%6) + 1
		return s.KernelTime(x, active, 640) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGPUHostFactor(t *testing.T) {
	n := NewIGNode()
	if f := n.GPUHostFactor(1 * GiB); f != 1 {
		t.Errorf("in-memory factor = %v", f)
	}
	f := n.GPUHostFactor(32 * GiB)
	if f >= 1 || f <= 1-n.MemPressure {
		t.Errorf("pressure factor = %v", f)
	}
	// Monotone: more working set, more pressure.
	if n.GPUHostFactor(40*GiB) >= f {
		t.Error("pressure should grow with working set")
	}
	// Disabled when unconfigured.
	free := NewTestNode()
	free.SocketMemBytes = 0
	if free.GPUHostFactor(1e15) != 1 {
		t.Error("unlimited node should not be pressured")
	}
}

func TestSocketCacheDip(t *testing.T) {
	s := NewOpteron8439SE()
	s.DipStartElems = 100 * 640 * 640 // dip beyond 100 blocks per core
	s.DipDepth = 0.2
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Below the dip: unchanged vs the plain preset.
	plain := NewOpteron8439SE()
	if a, b := s.SocketRate(300, 6, 640), plain.SocketRate(300, 6, 640); a != b {
		t.Errorf("pre-dip rates differ: %v vs %v", a, b)
	}
	// Beyond it the socket slows, eventually by ≈20%.
	far := s.SocketRate(3000, 6, 640) / plain.SocketRate(3000, 6, 640)
	if far > 0.85 || far < 0.75 {
		t.Errorf("dip factor = %v, want ≈0.8", far)
	}
	// The resulting speed function is non-monotone — the case the
	// partitioner's envelope inversion exists for.
	peak := s.SocketRate(600, 6, 640)
	dipped := s.SocketRate(1400, 6, 640)
	if dipped >= peak {
		t.Errorf("expected non-monotone curve: peak %v, dipped %v", peak, dipped)
	}
	// Validation rejects bad dips.
	s.DipDepth = 1.5
	if err := s.Validate(); err == nil {
		t.Error("dip depth >= 1 accepted")
	}
	s.DipDepth = 0.2
	s.DipStartElems = -1
	if err := s.Validate(); err == nil {
		t.Error("negative dip start accepted")
	}
}

func TestDippedSocketPartitionsWithEnvelope(t *testing.T) {
	// End to end: a dipped (non-monotone) socket model still partitions
	// correctly against a flat device via the envelope-based inverter.
	s := NewOpteron8439SE()
	s.DipStartElems = 50 * 640 * 640
	s.DipDepth = 0.3
	var pts []float64
	_ = pts
	var samples []struct{ x, t float64 }
	for _, x := range []float64{30, 60, 120, 240, 480, 960, 1920} {
		samples = append(samples, struct{ x, t float64 }{x, s.KernelTime(x, 6, 640)})
	}
	// Speeds must rise then fall.
	rose, fell := false, false
	for i := 1; i < len(samples); i++ {
		s0 := samples[i-1].x / samples[i-1].t
		s1 := samples[i].x / samples[i].t
		if s1 > s0 {
			rose = true
		}
		if rose && s1 < s0 {
			fell = true
		}
	}
	if !rose || !fell {
		t.Errorf("expected rise-then-fall speeds: %+v", samples)
	}
}

func TestDoublePrecisionConfiguration(t *testing.T) {
	// The element size is a first-class parameter: a double-precision node
	// halves every GPU's capacity in blocks and doubles per-block bytes.
	sp := NewIGNode()
	dp := NewIGNode()
	dp.ElemBytes = 8
	if err := dp.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := dp.BlockBytes(), 2*sp.BlockBytes(); got != want {
		t.Errorf("DP block bytes = %v, want %v", got, want)
	}
	spBlocks, dpBlocks := sp.GPUMemBlocks(1), dp.GPUMemBlocks(1)
	if dpBlocks > spBlocks/2+1 || dpBlocks < spBlocks/2-1 {
		t.Errorf("DP capacity = %v blocks, want ≈%v", dpBlocks, spBlocks/2)
	}
}

func TestConfigRoundTrip(t *testing.T) {
	for _, n := range []*Node{NewIGNode(), NewTestNode()} {
		var buf bytes.Buffer
		if err := WriteConfig(&buf, n); err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		back, err := ReadConfig(&buf)
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		if back.Name != n.Name || len(back.Sockets) != len(n.Sockets) || len(back.GPUs) != len(n.GPUs) {
			t.Errorf("%s: shape changed on round trip", n.Name)
		}
		// Spot-check a behavioural quantity survives exactly.
		if back.Sockets[0].SocketRate(600, back.Sockets[0].Cores, back.BlockSize) !=
			n.Sockets[0].SocketRate(600, n.Sockets[0].Cores, n.BlockSize) {
			t.Errorf("%s: socket rate changed", n.Name)
		}
		if len(n.GPUs) > 0 && back.GPUMemBlocks(0) != n.GPUMemBlocks(0) {
			t.Errorf("%s: GPU capacity changed", n.Name)
		}
	}
}

func TestReadConfigRejectsBadInput(t *testing.T) {
	cases := []string{
		`{`,                           // malformed JSON
		`{"name":"x"}`,                // invalid node (no sockets)
		`{"name":"x","unknown":true}`, // unknown field
	}
	for i, c := range cases {
		if _, err := ReadConfig(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	// Writing an invalid node fails too.
	var buf bytes.Buffer
	if err := WriteConfig(&buf, &Node{}); err == nil {
		t.Error("invalid node serialised")
	}
}

package gpukernel

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"fpmpart/internal/hw"
	"fpmpart/internal/sim"
)

func inv680(rows, cols int) Invocation {
	return Invocation{GPU: hw.NewGTX680(), BlockSize: 640, ElemBytes: 4, Rows: rows, Cols: cols}
}

func invC870(rows, cols int) Invocation {
	return Invocation{GPU: hw.NewTeslaC870(), BlockSize: 640, ElemBytes: 4, Rows: rows, Cols: cols}
}

func speedOf(t *testing.T, v Version, i Invocation) float64 {
	t.Helper()
	s, err := Speed(v, i)
	if err != nil {
		t.Fatalf("%v %dx%d: %v", v, i.Rows, i.Cols, err)
	}
	return s
}

func TestVersionStrings(t *testing.T) {
	if V1.String() != "version1" || V2.String() != "version2" || V3.String() != "version3" {
		t.Error("version names wrong")
	}
	if Version(9).String() != "version9" {
		t.Error("unknown version formatting wrong")
	}
}

func TestValidation(t *testing.T) {
	bad := []Invocation{
		{},
		{GPU: hw.NewGTX680()},
		{GPU: hw.NewGTX680(), BlockSize: 640, ElemBytes: 4, Rows: 0, Cols: 5},
		{GPU: hw.NewGTX680(), BlockSize: 640, ElemBytes: 4, Rows: 5, Cols: -1},
		{GPU: hw.NewGTX680(), BlockSize: -1, ElemBytes: 4, Rows: 5, Cols: 5},
		{GPU: &hw.GPU{}, BlockSize: 640, ElemBytes: 4, Rows: 5, Cols: 5},
	}
	for i, b := range bad {
		if _, err := Time(V1, b); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	if _, err := Time(Version(0), inv680(5, 5)); err == nil {
		t.Error("unknown version should error")
	}
	if _, err := Speed(Version(0), inv680(5, 5)); err == nil {
		t.Error("Speed with unknown version should error")
	}
}

func TestInMemoryDetection(t *testing.T) {
	// 30x30 = 900 blocks + margins fits GTX680 (1310 blocks); 40x40 does not.
	bd, err := Time(V2, inv680(30, 30))
	if err != nil {
		t.Fatal(err)
	}
	if !bd.InMemory || bd.Tiles != 1 {
		t.Errorf("30x30 should be in-memory single-tile: %+v", bd)
	}
	bd, err = Time(V2, inv680(40, 40))
	if err != nil {
		t.Fatal(err)
	}
	if bd.InMemory || bd.Tiles < 2 {
		t.Errorf("40x40 should be out-of-core multi-tile: %+v", bd)
	}
}

func TestV2InMemorySkipsCTraffic(t *testing.T) {
	bd, err := Time(V2, inv680(30, 30))
	if err != nil {
		t.Fatal(err)
	}
	if bd.D2H != 0 {
		t.Errorf("in-memory V2 should not upload C: D2H=%v", bd.D2H)
	}
	v1, err := Time(V1, inv680(30, 30))
	if err != nil {
		t.Fatal(err)
	}
	if v1.D2H == 0 || v1.H2D <= bd.H2D {
		t.Errorf("V1 must move C both ways: %+v vs V2 %+v", v1, bd)
	}
}

func TestFigure3Shape(t *testing.T) {
	// The paper's Figure 3, qualitatively:
	// (1) version 2 roughly doubles version 1 while C fits device memory;
	v1 := speedOf(t, V1, inv680(30, 30))
	v2 := speedOf(t, V2, inv680(30, 30))
	if v2 < 1.7*v1 || v2 > 2.6*v1 {
		t.Errorf("in-memory v2/v1 = %.2f, want ≈2", v2/v1)
	}
	// (2) version 2 drops sharply past the memory limit;
	v2out := speedOf(t, V2, inv680(45, 45))
	if v2out > 0.65*v2 {
		t.Errorf("out-of-core v2 = %.1f GF, in-memory %.1f GF: no cliff", v2out/1e9, v2/1e9)
	}
	// (3) version 3 improves on version 2 out-of-core by ≈30%;
	v3out := speedOf(t, V3, inv680(45, 45))
	ratio := v3out / v2out
	if ratio < 1.15 || ratio > 1.6 {
		t.Errorf("overlap improvement = %.2f, want ≈1.3", ratio)
	}
	// (4) the single-DMA C870 gains less from overlap than the GTX680.
	c2 := speedOf(t, V2, invC870(45, 45))
	c3 := speedOf(t, V3, invC870(45, 45))
	if c3 < c2 {
		t.Errorf("C870 overlap should not hurt: v3 %.1f < v2 %.1f", c3/1e9, c2/1e9)
	}
	if c3/c2 > ratio {
		t.Errorf("C870 gain %.2f should be below GTX680 gain %.2f", c3/c2, ratio)
	}
}

func TestV1PlateausAcrossMemoryLimit(t *testing.T) {
	// Version 1 transfers everything anyway, so there is no cliff at the
	// memory limit — the curve is flat (paper's Figure 3).
	in := speedOf(t, V1, inv680(30, 30))
	out := speedOf(t, V1, inv680(50, 50))
	if math.Abs(in-out) > 0.1*in {
		t.Errorf("v1 not flat across memory limit: %.1f vs %.1f GF", in/1e9, out/1e9)
	}
}

func TestTooWideRectangleFails(t *testing.T) {
	// A 1-row rectangle wider than device memory cannot be tiled by rows.
	i := inv680(1, 3000)
	if _, err := Time(V2, i); err == nil {
		t.Error("expected too-wide error for V2")
	}
	if _, err := Time(V3, i); err == nil {
		t.Error("expected too-wide error for V3")
	}
	if _, err := Time(V1, i); err == nil {
		t.Error("expected too-wide error for V1")
	}
}

func TestBreakdownConsistency(t *testing.T) {
	for _, v := range []Version{V1, V2, V3} {
		for _, i := range []Invocation{inv680(20, 20), inv680(50, 50), invC870(40, 40)} {
			bd, err := Time(v, i)
			if err != nil {
				t.Fatalf("%v: %v", v, err)
			}
			if bd.Makespan <= 0 {
				t.Errorf("%v %dx%d: makespan %v", v, i.Rows, i.Cols, bd.Makespan)
			}
			if bd.H2D < 0 || bd.D2H < 0 || bd.Compute <= 0 {
				t.Errorf("%v: negative breakdown %+v", v, bd)
			}
			// Makespan can never exceed the fully serial schedule or be
			// shorter than the compute alone.
			serial := bd.H2D + bd.D2H + bd.Compute
			if bd.Makespan > serial+1e-9 {
				t.Errorf("%v: makespan %v > serial %v", v, bd.Makespan, serial)
			}
			if bd.Makespan < bd.Compute-1e-9 {
				t.Errorf("%v: makespan %v < compute %v", v, bd.Makespan, bd.Compute)
			}
		}
	}
}

func TestMisalignmentPenaltyForCustomBlockSize(t *testing.T) {
	// b=100 is not a multiple of 32: version 1 pays the penalty, versions
	// 2/3 pad to alignment. Compare against b=96 (aligned) — the v1 rate
	// must degrade relative to its aligned counterpart more than v2's.
	g := hw.NewGTX680()
	mis := Invocation{GPU: g, BlockSize: 100, ElemBytes: 4, Rows: 10, Cols: 10}
	bd1, err := Time(V1, mis)
	if err != nil {
		t.Fatal(err)
	}
	bd2, err := Time(V2, mis)
	if err != nil {
		t.Fatal(err)
	}
	// v1's compute must be ≈1/penalty times v2's compute (same flops).
	ratio := bd1.Compute / bd2.Compute
	want := 1 / g.MisalignPenalty
	if math.Abs(ratio-want) > 0.05*want {
		t.Errorf("compute ratio %v, want %v", ratio, want)
	}
}

// Property: speed functions are positive and bounded by device peak for any
// geometry; Speed = area*flops/Makespan consistency.
func TestSpeedBoundsProperty(t *testing.T) {
	g := hw.NewGTX680()
	f := func(r, c uint8, vRaw uint8) bool {
		rows := int(r%60) + 1
		cols := int(c%60) + 1
		v := Version(int(vRaw%3) + 1)
		i := Invocation{GPU: g, BlockSize: 640, ElemBytes: 4, Rows: rows, Cols: cols}
		s, err := Speed(v, i)
		if err != nil {
			// Only acceptable failure: rectangle too wide for tiling.
			_, terr := i.tileHeights(1)
			return terr != nil
		}
		return s > 0 && s <= g.PeakRate
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: version 3 is never slower than version 2 out-of-core on a
// two-DMA device (overlap can only help there).
func TestV3NotSlowerProperty(t *testing.T) {
	f := func(r uint8) bool {
		n := int(r%40) + 40 // out-of-core sizes
		v2, err2 := Speed(V2, inv680(n, n))
		v3, err3 := Speed(V3, inv680(n, n))
		if err2 != nil || err3 != nil {
			return false
		}
		return v3 >= v2*0.999
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// engineLanes returns the lanes of tl in first-appearance order, failing
// the test when two spans of one lane overlap (engines are sequential).
func engineLanes(t *testing.T, tl *sim.Timeline) []string {
	t.Helper()
	byLane := map[string][]sim.Span{}
	var lanes []string
	for _, s := range tl.Spans() {
		if _, seen := byLane[s.Lane]; !seen {
			lanes = append(lanes, s.Lane)
		}
		byLane[s.Lane] = append(byLane[s.Lane], s)
	}
	for lane, spans := range byLane {
		sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
		for i := 1; i < len(spans); i++ {
			if spans[i].Start < spans[i-1].End-1e-12 {
				t.Errorf("lane %s: %q overlaps %q", lane, spans[i].Label, spans[i-1].Label)
			}
		}
	}
	return lanes
}

func TestScheduleV3ProducesValidTimeline(t *testing.T) {
	var tl sim.Timeline
	bd, err := ScheduleV3(inv680(45, 45), &tl)
	if err != nil {
		t.Fatal(err)
	}
	// Lanes: h2d, compute, d2h (two DMA engines on the GTX680).
	lanes := engineLanes(t, &tl)
	if len(lanes) != 3 {
		t.Errorf("lanes = %v, want h2d/compute/d2h", lanes)
	}
	// The pipelined makespan (before overlap blending) is the last span end;
	// the reported makespan blends it toward serial, so it's >= the trace's.
	if bd.Makespan < tl.Makespan()-1e-9 {
		t.Errorf("reported makespan %v below traced %v", bd.Makespan, tl.Makespan())
	}
	// Compute busy time matches the breakdown.
	var got float64
	for _, s := range tl.Spans() {
		if s.Lane == "compute" {
			got += s.End - s.Start
		}
	}
	if math.Abs(got-bd.Compute) > 1e-9 {
		t.Errorf("traced compute %v vs breakdown %v", got, bd.Compute)
	}
	// Single-DMA device: h2d and d2h share one lane.
	var tlc sim.Timeline
	if _, err := ScheduleV3(invC870(45, 45), &tlc); err != nil {
		t.Fatal(err)
	}
	if got := len(engineLanes(t, &tlc)); got != 2 {
		t.Errorf("C870 lanes = %d, want 2 (shared DMA engine)", got)
	}
	// Invalid invocation is rejected.
	if _, err := ScheduleV3(Invocation{}, &tl); err == nil {
		t.Error("invalid invocation accepted")
	}
}

// Golden calibration bands for the kernel speeds on the preset GPUs —
// regression protection for the constants documented in EXPERIMENTS.md.
func TestGoldenKernelCalibration(t *testing.T) {
	cases := []struct {
		name   string
		v      Version
		inv    Invocation
		lo, hi float64 // Gflop/s
	}{
		{"gtx v1 plateau", V1, inv680(30, 30), 330, 420},
		{"gtx v2 in-memory", V2, inv680(34, 34), 850, 980},
		{"gtx v2 out-of-core", V2, inv680(50, 50), 350, 470},
		{"gtx v3 out-of-core", V3, inv680(50, 50), 520, 680},
		{"c870 v2 in-memory", V2, invC870(30, 30), 200, 250},
		{"c870 v2 out-of-core", V2, invC870(50, 50), 130, 180},
	}
	for _, c := range cases {
		s, err := Speed(c.v, c.inv)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if g := s / 1e9; g < c.lo || g > c.hi {
			t.Errorf("%s = %.1f Gflop/s, want [%v, %v]", c.name, g, c.lo, c.hi)
		}
	}
}

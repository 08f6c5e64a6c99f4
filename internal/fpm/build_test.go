package fpm

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestFromTimings(t *testing.T) {
	m, err := FromTimings([]TimeSample{
		{Size: 100, Seconds: 1}, // speed 100
		{Size: 400, Seconds: 2}, // speed 200
		{Size: 800, Seconds: 8}, // speed 100
	})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, m.Speed(100), 100, 1e-9, "s(100)")
	approx(t, m.Speed(400), 200, 1e-9, "s(400)")
	approx(t, m.Speed(800), 100, 1e-9, "s(800)")
	// Round trip: predicted time at measured sizes equals input.
	approx(t, Time(m, 400), 2, 1e-9, "t(400)")
}

func TestFromTimingsValidation(t *testing.T) {
	bad := [][]TimeSample{
		nil,
		{{Size: 0, Seconds: 1}},
		{{Size: 5, Seconds: 0}},
		{{Size: 5, Seconds: -1}},
		{{Size: 5, Seconds: math.NaN()}},
	}
	for i, s := range bad {
		if _, err := FromTimings(s); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestGridLinear(t *testing.T) {
	g, err := Grid(10, 50, 5, "linear")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{10, 20, 30, 40, 50}
	for i := range want {
		approx(t, g[i], want[i], 1e-9, "linear grid")
	}
}

func TestGridGeometric(t *testing.T) {
	g, err := Grid(1, 16, 5, "geometric")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 2, 4, 8, 16}
	for i := range want {
		approx(t, g[i], want[i], 1e-9, "geometric grid")
	}
}

func TestGridEdgeCases(t *testing.T) {
	if g, err := Grid(5, 100, 1, "linear"); err != nil || len(g) != 1 || g[0] != 5 {
		t.Errorf("n=1 grid: %v, %v", g, err)
	}
	for _, c := range []struct {
		lo, hi float64
		n      int
		sp     string
	}{
		{0, 10, 3, "linear"},
		{10, 5, 3, "linear"},
		{1, 10, 0, "linear"},
		{1, 10, 3, "fibonacci"},
	} {
		if _, err := Grid(c.lo, c.hi, c.n, c.sp); err == nil {
			t.Errorf("expected error for %+v", c)
		}
	}
}

func TestAccuracy(t *testing.T) {
	m := MustPiecewiseLinear([]Point{{Size: 10, Speed: 100}, {Size: 100, Speed: 100}})
	// Model predicts t = x/100 exactly.
	mean, max, err := Accuracy(m, []TimeSample{{Size: 10, Seconds: 0.1}, {Size: 50, Seconds: 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, mean, 0, 1e-9, "perfect model mean error")
	approx(t, max, 0, 1e-9, "perfect model max error")
	// 50% slow reference -> 100% relative error of prediction? pred=0.5, ref=1.0: |0.5-1|/1 = 0.5.
	mean, max, err = Accuracy(m, []TimeSample{{Size: 50, Seconds: 1.0}})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, mean, 0.5, 1e-9, "mean rel err")
	approx(t, max, 0.5, 1e-9, "max rel err")
	if _, _, err := Accuracy(m, nil); err == nil {
		t.Error("expected error on empty reference")
	}
	if _, _, err := Accuracy(m, []TimeSample{{Size: 5, Seconds: -1}}); err == nil {
		t.Error("expected error on bad reference time")
	}
}

func TestMerge(t *testing.T) {
	a := MustPiecewiseLinear([]Point{{Size: 10, Speed: 100}, {Size: 20, Speed: 110}})
	b := MustPiecewiseLinear([]Point{{Size: 20, Speed: 120}, {Size: 30, Speed: 130}})
	m, err := MergeEps(1e-6, a, b)
	if err != nil {
		t.Fatal(err)
	}
	pts := m.Points()
	if len(pts) != 3 {
		t.Fatalf("merged points = %d, want 3", len(pts))
	}
	approx(t, m.Speed(20), 120, 1e-9, "later model wins at duplicate size")
	if _, err := MergeEps(1e-6); err == nil {
		t.Error("expected error merging nothing")
	}
	if _, err := MergeEps(1e-6, a, nil); err == nil {
		t.Error("expected error merging nil model")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	m := MustPiecewiseLinear([]Point{{Size: 10, Speed: 100}, {Size: 20, Speed: 150.5}})
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back PiecewiseLinear
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{10, 15, 20} {
		approx(t, back.Speed(x), m.Speed(x), 1e-12, "round-tripped speed")
	}
	// Invalid payloads rejected.
	if err := new(PiecewiseLinear).UnmarshalJSON([]byte(`{"kind":"cubic","points":[]}`)); err == nil {
		t.Error("unexpected kind should fail")
	}
	if err := new(PiecewiseLinear).UnmarshalJSON([]byte(`{"points":[]}`)); err == nil {
		t.Error("empty points should fail")
	}
	if err := new(PiecewiseLinear).UnmarshalJSON([]byte(`{`)); err == nil {
		t.Error("bad json should fail")
	}
}

func TestSmoothRemovesRipple(t *testing.T) {
	// A flat 100-speed curve with alternating ±10 measurement ripple.
	var pts []Point
	for i := 0; i < 20; i++ {
		s := 100.0
		if i%2 == 0 {
			s += 10
		} else {
			s -= 10
		}
		pts = append(pts, Point{Size: float64(10 + 10*i), Speed: s})
	}
	m := MustPiecewiseLinear(pts)
	sm, err := Smooth(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Interior smoothed points are within 2.5 of the true 100 (5-point
	// window over the ±10 alternation leaves a ±2 residue).
	for _, p := range sm.Points()[3:17] {
		if math.Abs(p.Speed-100) > 2.5 {
			t.Errorf("smoothed speed at %v = %v, want ≈100", p.Size, p.Speed)
		}
	}
	// Sizes unchanged.
	for i, p := range sm.Points() {
		if p.Size != pts[i].Size {
			t.Error("smoothing moved the sizes")
		}
	}
}

func TestSmoothPreservesCliff(t *testing.T) {
	var pts []Point
	for i := 0; i < 20; i++ {
		s := 900.0
		if i >= 10 {
			s = 450
		}
		pts = append(pts, Point{Size: float64(100 * (i + 1)), Speed: s})
	}
	sm, err := Smooth(MustPiecewiseLinear(pts), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Well away from the cliff, levels persist.
	if s := sm.Speed(300); math.Abs(s-900) > 1 {
		t.Errorf("pre-cliff level = %v", s)
	}
	if s := sm.Speed(1800); math.Abs(s-450) > 1 {
		t.Errorf("post-cliff level = %v", s)
	}
	// The cliff is still a large drop.
	if drop := sm.Speed(900) - sm.Speed(1300); drop < 200 {
		t.Errorf("cliff flattened away: drop = %v", drop)
	}
}

func TestSmoothEdgeCases(t *testing.T) {
	m := MustPiecewiseLinear([]Point{{Size: 1, Speed: 5}, {Size: 2, Speed: 7}})
	sm, err := Smooth(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	if sm.Speed(1) != 5 || sm.Speed(2) != 7 {
		t.Error("tiny models should pass through")
	}
	if _, err := Smooth(nil, 1); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := Smooth(m, -1); err == nil {
		t.Error("negative window accepted")
	}
	// window 0 is the identity.
	same, err := Smooth(m, 0)
	if err != nil || same.Speed(1.5) != m.Speed(1.5) {
		t.Errorf("window 0 not identity: %v, %v", same, err)
	}
}

func TestDiagnoseFindsInversions(t *testing.T) {
	// Speed cliff steep enough that t decreases across the knot:
	// t(100) = 100/50 = 2; t(110) = 110/100 = 1.1 < 2.
	m := MustPiecewiseLinear([]Point{
		{Size: 10, Speed: 50}, {Size: 100, Speed: 50}, {Size: 110, Speed: 100}, {Size: 500, Speed: 100},
	})
	inv := Diagnose(m)
	if len(inv) != 1 {
		t.Fatalf("inversions = %v, want 1", inv)
	}
	if inv[0].FromSize != 100 || inv[0].ToSize != 110 {
		t.Errorf("inversion region %+v", inv[0])
	}
	if inv[0].String() == "" {
		t.Error("empty inversion description")
	}
	// A monotone-time model diagnoses clean.
	clean := MustPiecewiseLinear([]Point{{Size: 10, Speed: 50}, {Size: 500, Speed: 60}})
	if got := Diagnose(clean); len(got) != 0 {
		t.Errorf("clean model flagged: %v", got)
	}
}

func TestDescribeModel(t *testing.T) {
	m := MustPiecewiseLinear([]Point{
		{Size: 10, Speed: 50}, {Size: 100, Speed: 50}, {Size: 110, Speed: 100},
	})
	d := DescribeModel(m)
	for _, want := range []string{"3 points", "[10, 110]", "50..100", "time inversion"} {
		if !strings.Contains(d, want) {
			t.Errorf("description missing %q: %s", want, d)
		}
	}
	clean := MustPiecewiseLinear([]Point{{Size: 10, Speed: 50}})
	if strings.Contains(DescribeModel(clean), "inversion") {
		t.Error("clean model described with inversions")
	}
}

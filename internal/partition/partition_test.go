package partition

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"fpmpart/internal/fpm"
)

func constDev(name string, speed float64, cap float64) Device {
	c, err := fpm.NewConstant(speed)
	if err != nil {
		panic(err)
	}
	return Device{Name: name, Model: c, MaxUnits: cap}
}

func sumUnits(r Result) int {
	s := 0
	for _, a := range r.Assignments {
		s += a.Units
	}
	return s
}

func TestHomogeneousEvenSplit(t *testing.T) {
	devs := []Device{constDev("a", 1, 0), constDev("b", 2, 0), constDev("c", 3, 0)}
	r, err := Homogeneous(devs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Units(); got[0]+got[1]+got[2] != 10 {
		t.Fatalf("total = %v", got)
	}
	u := r.Units()
	if u[0] != 4 || u[1] != 3 || u[2] != 3 {
		t.Errorf("units = %v, want [4 3 3]", u)
	}
	if r.Total != 10 {
		t.Errorf("Total = %d", r.Total)
	}
}

func TestCPMProportional(t *testing.T) {
	devs := []Device{constDev("fast", 30, 0), constDev("slow", 10, 0)}
	r, err := CPM(devs, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	u := r.Units()
	if u[0] != 75 || u[1] != 25 {
		t.Errorf("units = %v, want [75 25]", u)
	}
	// Constant models => CPM is perfectly balanced.
	if r.Imbalance() > 1e-9 {
		t.Errorf("imbalance = %v", r.Imbalance())
	}
}

func TestFPMEqualsCPMForConstantModels(t *testing.T) {
	devs := []Device{constDev("a", 30, 0), constDev("b", 10, 0), constDev("c", 60, 0)}
	cpm, err := CPM(devs, 997, 100)
	if err != nil {
		t.Fatal(err)
	}
	fpmRes, err := FPM(devs, 997, FPMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cu, fu := cpm.Units(), fpmRes.Units()
	for i := range cu {
		if d := cu[i] - fu[i]; d < -1 || d > 1 {
			t.Errorf("device %d: CPM %d vs FPM %d", i, cu[i], fu[i])
		}
	}
	if sumUnits(fpmRes) != 997 {
		t.Errorf("FPM total = %d", sumUnits(fpmRes))
	}
}

// A device that slows down with size: speed halves beyond 100 units.
func cliffDevice(name string) Device {
	m := fpm.MustPiecewiseLinear([]fpm.Point{
		{Size: 1, Speed: 100}, {Size: 100, Speed: 100},
		{Size: 101, Speed: 50}, {Size: 10000, Speed: 50},
	})
	return Device{Name: name, Model: m}
}

func TestFPMAdaptsToCliffCPMDoesNot(t *testing.T) {
	devs := []Device{cliffDevice("gpuish"), constDev("cpuish", 100, 0)}
	n := 1000
	// CPM probed at a small reference size thinks both devices run at 100:
	cpm, err := CPM(devs, n, 50)
	if err != nil {
		t.Fatal(err)
	}
	if u := cpm.Units(); u[0] != 500 || u[1] != 500 {
		t.Fatalf("CPM units = %v, want [500 500]", u)
	}
	// But the cliff device actually runs at 50 beyond 100 units, so CPM's
	// predicted-by-true-model imbalance is ~2x. FPM knows the cliff:
	res, err := FPM(devs, n, FPMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	u := res.Units()
	if sumUnits(res) != n {
		t.Fatalf("total = %d", sumUnits(res))
	}
	// Equal time: x/50 = (n-x)/100 => x = n/3 ≈ 333.
	if u[0] < 330 || u[0] > 337 {
		t.Errorf("FPM cliff-device units = %d, want ≈333", u[0])
	}
	if res.Imbalance() > 0.02 {
		t.Errorf("FPM imbalance = %v", res.Imbalance())
	}
}

func TestFPMRespectsMemoryCap(t *testing.T) {
	devs := []Device{constDev("gpu", 1000, 200), constDev("cpu", 10, 0)}
	r, err := FPM(devs, 1000, FPMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	u := r.Units()
	if u[0] != 200 {
		t.Errorf("capped device got %d, want exactly its cap 200", u[0])
	}
	if u[1] != 800 {
		t.Errorf("uncapped device got %d, want 800", u[1])
	}
}

func TestFPMZeroAndSmallN(t *testing.T) {
	devs := []Device{constDev("a", 5, 0), constDev("b", 1, 0)}
	r, err := FPM(devs, 0, FPMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sumUnits(r) != 0 {
		t.Errorf("n=0 total = %d", sumUnits(r))
	}
	r, err = FPM(devs, 1, FPMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sumUnits(r) != 1 {
		t.Errorf("n=1 total = %d", sumUnits(r))
	}
	// The single unit goes to the fast device.
	if r.Units()[0] != 1 {
		t.Errorf("n=1 units = %v", r.Units())
	}
}

func TestValidationErrors(t *testing.T) {
	good := []Device{constDev("a", 1, 0)}
	if _, err := FPM(nil, 10, FPMOptions{}); err == nil {
		t.Error("no devices should fail")
	}
	if _, err := FPM(good, -1, FPMOptions{}); err == nil {
		t.Error("negative n should fail")
	}
	if _, err := FPM([]Device{{Name: "x"}}, 10, FPMOptions{}); err == nil {
		t.Error("nil model should fail")
	}
	if _, err := FPM([]Device{constDev("a", 1, -5)}, 10, FPMOptions{}); err == nil {
		t.Error("negative cap should fail")
	}
	// Infeasible: all caps sum below n.
	if _, err := FPM([]Device{constDev("a", 1, 3), constDev("b", 1, 4)}, 10, FPMOptions{}); err == nil {
		t.Error("infeasible caps should fail")
	}
	if _, err := Homogeneous(nil, 5); err == nil {
		t.Error("homogeneous without devices should fail")
	}
	if _, err := CPM(nil, 5, 1); err == nil {
		t.Error("CPM without devices should fail")
	}
}

func TestResultImbalanceAndTimes(t *testing.T) {
	devs := []Device{constDev("a", 10, 0), constDev("b", 10, 0)}
	r, err := Homogeneous(devs, 20)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxTime != 1 || r.MinTime != 1 {
		t.Errorf("times = (%v, %v), want (1,1)", r.MinTime, r.MaxTime)
	}
	if r.Imbalance() != 0 {
		t.Errorf("imbalance = %v", r.Imbalance())
	}
	// Degenerate: nothing assigned.
	r0, err := Homogeneous(devs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(r0.Imbalance()) {
		t.Errorf("imbalance of empty partition = %v, want NaN", r0.Imbalance())
	}
}

// Property: over three constant-speed devices FPM assigns exactly n units and
// integer rounding leaves no device more than one unit above its continuous
// share: with T* = n / Σ sᵢ, every device finishes by T* + 1/sᵢ. (A bound on
// Imbalance() would be wrong here: a correct answer that leaves the slowest
// device 1–2 units has a large max/min ratio.)
func TestFPMInvariantsProperty(t *testing.T) {
	f := func(nRaw uint16, raw [3]uint8) bool {
		n := int(nRaw)%5000 + 10
		devs := make([]Device, len(raw))
		speeds := make([]float64, len(raw))
		total := 0.0
		for i, r := range raw {
			speeds[i] = 10 + float64(r)
			total += speeds[i]
			devs[i] = constDev(string(rune('a'+i)), speeds[i], 0)
		}
		r, err := FPM(devs, n, FPMOptions{})
		if err != nil || sumUnits(r) != n {
			return false
		}
		tStar := float64(n) / total
		for i, a := range r.Assignments {
			if float64(a.Units)/speeds[i] > tStar+1/speeds[i]+1e-9 {
				return false
			}
		}
		return true
	}
	// A fixed source makes a failure a repro, not a one-in-N event.
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestResultString(t *testing.T) {
	devs := []Device{constDev("a", 30, 0), constDev("b", 10, 0)}
	r, err := FPM(devs, 100, FPMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := r.String()
	for _, want := range []string{"100 units", "a=75", "b=25", "imbalance"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q: %s", want, s)
		}
	}
}

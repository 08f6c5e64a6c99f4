package dynamic

import (
	"math"
	"testing"
	"testing/quick"
)

// linearOracle: device d processes one unit in perUnit[d] seconds.
func linearOracle(perUnit []float64) Oracle {
	return func(d, u int) float64 { return float64(u) * perUnit[d] }
}

func TestRunBalancedStartNeverRebalances(t *testing.T) {
	o := linearOracle([]float64{1, 1})
	tr, err := Run(o, []int{50, 50}, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Rebalances != 0 || tr.TotalMoved != 0 {
		t.Errorf("balanced start rebalanced: %+v", tr)
	}
	if math.Abs(tr.TotalSeconds-500) > 1e-9 {
		t.Errorf("total = %v, want 500", tr.TotalSeconds)
	}
	if tr.FinalImbalance() > 1e-12 {
		t.Errorf("final imbalance = %v", tr.FinalImbalance())
	}
}

func TestRunConvergesFromBadStart(t *testing.T) {
	// Device 0 is 4x faster; a 50/50 start is badly unbalanced.
	o := linearOracle([]float64{0.25, 1})
	tr, err := Run(o, []int{50, 50}, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Rebalances == 0 {
		t.Fatal("expected at least one rebalance")
	}
	final := tr.Steps[len(tr.Steps)-1].Units
	// Equilibrium: 80/20.
	if final[0] < 76 || final[0] > 84 {
		t.Errorf("final units = %v, want ≈[80 20]", final)
	}
	if tr.FinalImbalance() > 0.1 {
		t.Errorf("final imbalance = %v", tr.FinalImbalance())
	}
	// First step is the worst; later steps must improve.
	if tr.Steps[0].Makespan <= tr.Steps[len(tr.Steps)-1].Makespan {
		t.Error("makespan did not improve")
	}
	// Total preserved.
	sum := 0
	for _, u := range final {
		sum += u
	}
	if sum != 100 {
		t.Errorf("total units drifted to %d", sum)
	}
}

func TestMigrationCostCharged(t *testing.T) {
	o := linearOracle([]float64{0.25, 1})
	free, err := Run(o, []int{50, 50}, 5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	paid, err := Run(o, []int{50, 50}, 5, Options{MigrationCost: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if paid.TotalMoved != free.TotalMoved {
		t.Fatalf("moves differ: %d vs %d", paid.TotalMoved, free.TotalMoved)
	}
	wantExtra := 0.5 * float64(paid.TotalMoved)
	if math.Abs((paid.TotalSeconds-free.TotalSeconds)-wantExtra) > 1e-9 {
		t.Errorf("migration cost %v not charged (delta %v)", wantExtra, paid.TotalSeconds-free.TotalSeconds)
	}
}

func TestNoRebalanceOnLastIteration(t *testing.T) {
	o := linearOracle([]float64{0.25, 1})
	tr, err := Run(o, []int{50, 50}, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Rebalances != 0 {
		t.Error("single-iteration run should never rebalance")
	}
}

func TestZeroUnitDeviceCanReenter(t *testing.T) {
	o := linearOracle([]float64{1, 1})
	tr, err := Run(o, []int{100, 0}, 6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	final := tr.Steps[len(tr.Steps)-1].Units
	if final[1] == 0 {
		t.Errorf("idle device never received work: %v", final)
	}
}

func TestIdleProbeUsesAverageSpeed(t *testing.T) {
	// An idle device has no observed speed; the balancer probes it with the
	// average apparent speed total/p/hi. Equal per-unit costs, start
	// [100, 0]: hi = 100 s, so the probe speed is 100/2/100 = 0.5 against
	// device 0's observed 1.0 — the next distribution must be [67, 33].
	o := linearOracle([]float64{1, 1})
	tr, err := Run(o, []int{100, 0}, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(tr.Steps[0].Imbalance, 1) {
		t.Errorf("step 0 imbalance = %v, want +Inf (idle device)", tr.Steps[0].Imbalance)
	}
	next := tr.Steps[1].Units
	if next[0] != 67 || next[1] != 33 {
		t.Errorf("post-probe units = %v, want [67 33]", next)
	}
}

func TestIdleDeviceOverridesThreshold(t *testing.T) {
	// The two working devices finish together, so their imbalance is 0 and
	// under the threshold; only the idle third device's infinite imbalance
	// can trigger the redistribution that hands it work.
	o := linearOracle([]float64{1, 1, 1})
	tr, err := Run(o, []int{50, 50, 0}, 3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(tr.Steps[0].Imbalance, 1) || tr.Steps[0].Moved == 0 {
		t.Fatalf("idle device did not trigger a rebalance: %+v", tr.Steps[0])
	}
	if final := tr.Steps[len(tr.Steps)-1].Units; final[2] == 0 {
		t.Errorf("idle device still idle after %d rebalances: %v", tr.Rebalances, final)
	}
}

func TestMigrationAccountingIdentities(t *testing.T) {
	o := linearOracle([]float64{0.25, 1})
	const cost = 0.5
	tr, err := Run(o, []int{50, 50}, 6, Options{MigrationCost: cost})
	if err != nil {
		t.Fatal(err)
	}
	if tr.TotalMoved == 0 {
		t.Fatal("expected migrations from the unbalanced start")
	}
	var seconds float64
	moved := 0
	for i, st := range tr.Steps {
		if want := float64(st.Moved) * cost; math.Abs(st.MigrationSeconds-want) > 1e-12 {
			t.Errorf("step %d: migration seconds %v, want %v (%d moved)", i, st.MigrationSeconds, want, st.Moved)
		}
		seconds += st.Makespan + st.MigrationSeconds
		moved += st.Moved
	}
	if math.Abs(tr.TotalSeconds-seconds) > 1e-9 {
		t.Errorf("TotalSeconds = %v, Σ(makespan+migration) = %v", tr.TotalSeconds, seconds)
	}
	if moved != tr.TotalMoved {
		t.Errorf("TotalMoved = %d, Σ Moved = %d", tr.TotalMoved, moved)
	}
}

func TestRunValidation(t *testing.T) {
	o := linearOracle([]float64{1})
	if _, err := Run(nil, []int{1}, 1, Options{}); err == nil {
		t.Error("nil oracle accepted")
	}
	if _, err := Run(o, nil, 1, Options{}); err == nil {
		t.Error("empty distribution accepted")
	}
	if _, err := Run(o, []int{1}, 0, Options{}); err == nil {
		t.Error("zero iterations accepted")
	}
	if _, err := Run(o, []int{-1}, 1, Options{}); err == nil {
		t.Error("negative units accepted")
	}
	if _, err := Run(o, []int{0}, 1, Options{}); err == nil {
		t.Error("zero total accepted")
	}
	bad := func(d, u int) float64 { return -1 }
	if _, err := Run(bad, []int{5}, 1, Options{}); err == nil {
		t.Error("invalid oracle time accepted")
	}
}

// Property: the total unit count is conserved through every step and the
// final imbalance of a long linear-oracle run is within threshold-ish.
func TestConservationProperty(t *testing.T) {
	f := func(aRaw, bRaw uint8, split uint8) bool {
		a := 0.1 + float64(aRaw)/64
		b := 0.1 + float64(bRaw)/64
		total := 200
		s := int(split) % (total - 1)
		o := linearOracle([]float64{a, b})
		tr, err := Run(o, []int{s + 1, total - s - 1}, 12, Options{})
		if err != nil {
			return false
		}
		for _, st := range tr.Steps {
			sum := 0
			for _, u := range st.Units {
				sum += u
			}
			if sum != total {
				return false
			}
		}
		// Linear oracles converge geometrically; 12 iterations suffice for
		// a loose bound.
		return tr.FinalImbalance() < 0.5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

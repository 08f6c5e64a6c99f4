package resilient

import (
	"math"
	"reflect"
	"testing"

	"fpmpart/internal/faults"
	"fpmpart/internal/fpm"
	"fpmpart/internal/partition"
)

// constDevices builds constant-speed devices (units/second) whose oracle is
// exactly the model: pred == observed in the fault-free case.
func constDevices(t *testing.T, speeds ...float64) ([]partition.Device, func(d, u int) float64) {
	t.Helper()
	devs := make([]partition.Device, len(speeds))
	for i, s := range speeds {
		c, err := fpm.NewConstant(s)
		if err != nil {
			t.Fatal(err)
		}
		devs[i] = partition.Device{Name: string(rune('A' + i)), Model: c}
	}
	oracle := func(d, u int) float64 { return float64(u) / speeds[d] }
	return devs, oracle
}

func injected(t *testing.T, spec string, seed int64, base func(d, u int) float64) faults.Oracle {
	t.Helper()
	sp, err := faults.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	in, err := faults.NewInjector(sp, seed)
	if err != nil {
		t.Fatal(err)
	}
	return in.Wrap(base)
}

func TestFaultFreeRunMatchesStaticFPM(t *testing.T) {
	devs, base := constDevices(t, 4, 2, 2)
	tr, err := Run(devs, injected(t, "", 1, base), 80, 20, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Completed || tr.Rebalances != 0 || tr.Retries != 0 || len(tr.Dropped)+len(tr.Demoted) != 0 {
		t.Fatalf("fault-free run took recovery actions: %+v", tr)
	}
	if tr.UnitsProcessed != 80*20 {
		t.Errorf("units processed = %d, want %d", tr.UnitsProcessed, 80*20)
	}
	// FPM equilibrium: T = 80/(4+2+2) = 10s per iteration, units [40 20 20].
	if !reflect.DeepEqual(tr.FinalUnits, []int{40, 20, 20}) {
		t.Errorf("final units = %v, want [40 20 20]", tr.FinalUnits)
	}
	if math.Abs(tr.TotalSeconds-200) > 1e-9 {
		t.Errorf("total = %v, want 200", tr.TotalSeconds)
	}
}

// TestCrashRecovery is the PR's acceptance scenario: a seeded mid-run crash
// must complete with the correct total units processed, rebalance exactly
// once, and run post-recovery iterations at the fault-free FPM makespan of
// the surviving devices (well within the 25% criterion).
func TestCrashRecovery(t *testing.T) {
	const (
		n      = 80
		nIters = 20
		crash  = 10
	)
	devs, base := constDevices(t, 4, 2, 2)
	oracle := injected(t, "crash:dev=0,iter=10", 7, base)
	tr, err := Run(devs, oracle, n, nIters, Options{Policy: FPMRepartition, MigrationCost: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Completed {
		t.Fatal("run did not complete despite recovery")
	}
	if tr.UnitsProcessed != n*nIters {
		t.Errorf("units processed = %d, want %d (no work may be lost)", tr.UnitsProcessed, n*nIters)
	}
	if tr.Rebalances != 1 {
		t.Errorf("rebalances = %d, want exactly 1", tr.Rebalances)
	}
	if !reflect.DeepEqual(tr.Dropped, []int{0}) {
		t.Errorf("dropped = %v, want [0]", tr.Dropped)
	}
	// Fault-free FPM on the survivors (speeds 2+2, n=80): 20s/iteration.
	surv, survOracle := constDevices(t, 2, 2)
	free, err := Run(surv, injected(t, "", 1, survOracle), n, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracleMakespan := free.Steps[0].Makespan
	for _, step := range tr.Steps[crash+1:] {
		if step.Makespan > oracleMakespan*1.25 {
			t.Errorf("iteration %d makespan %v exceeds 125%% of the fault-free survivor oracle %v",
				step.Iter, step.Makespan, oracleMakespan)
		}
	}
	// Work conservation: survivors carry all n units after the drop.
	if !reflect.DeepEqual(tr.FinalUnits, []int{0, 40, 40}) {
		t.Errorf("final units = %v, want [0 40 40]", tr.FinalUnits)
	}
	// Total: 10 pre-crash iterations at 10s, the crash iteration (10s run +
	// 40 moved units + 10s residual re-execution), 9 post-crash at 20s.
	want := 10*10.0 + (10 + 40*1e-3 + 10) + 9*20.0
	if math.Abs(tr.TotalSeconds-want) > 1e-9 {
		t.Errorf("total = %v, want %v", tr.TotalSeconds, want)
	}
}

func TestCrashWithoutRecoveryLosesWork(t *testing.T) {
	devs, base := constDevices(t, 4, 2, 2)
	oracle := injected(t, "crash:dev=0,iter=10", 7, base)
	tr, err := Run(devs, oracle, 80, 20, Options{Policy: NoRecovery})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Completed {
		t.Error("NoRecovery run claims completion despite a crash")
	}
	if tr.Rebalances != 0 {
		t.Errorf("NoRecovery rebalanced %d times", tr.Rebalances)
	}
	// Device 0 carried 40 units; 10 iterations (10..19) lose them.
	if tr.LostUnits != 40*10 {
		t.Errorf("lost units = %d, want 400", tr.LostUnits)
	}
	if tr.UnitsProcessed != 80*20-400 {
		t.Errorf("units processed = %d, want %d", tr.UnitsProcessed, 80*20-400)
	}
}

func TestProportionalRecovery(t *testing.T) {
	devs, base := constDevices(t, 4, 2, 2)
	oracle := injected(t, "crash:dev=0,iter=5", 7, base)
	tr, err := Run(devs, oracle, 80, 12, Options{Policy: Proportional})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Completed || tr.UnitsProcessed != 80*12 {
		t.Fatalf("proportional recovery lost work: %+v", tr)
	}
	if tr.Rebalances != 1 {
		t.Errorf("rebalances = %d, want 1", tr.Rebalances)
	}
	// Equal survivor speeds observed at [20 20] → equal split.
	if !reflect.DeepEqual(tr.FinalUnits, []int{0, 40, 40}) {
		t.Errorf("final units = %v, want [0 40 40]", tr.FinalUnits)
	}
}

// TestProportionalRecoveryWeighsUnitsPerSecond: after an FPM start every
// survivor's iteration time is equal, so a rule weighing survivors by
// 1/time splits them evenly ([0 35 35], 35 s per iteration). Speed is
// units per second: the survivors ran 20 units and 10 units in 10 s each,
// so the split is 2:1, the same [0 47 23] FPM re-partitioning finds.
func TestProportionalRecoveryWeighsUnitsPerSecond(t *testing.T) {
	devs, base := constDevices(t, 4, 2, 1)
	oracle := injected(t, "crash:dev=0,iter=2", 7, base)
	tr, err := Run(devs, oracle, 70, 5, Options{Policy: Proportional})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.FinalUnits, []int{0, 47, 23}) {
		t.Errorf("final units = %v, want [0 47 23]", tr.FinalUnits)
	}
	if last := tr.Steps[len(tr.Steps)-1]; math.Abs(last.Makespan-23.5) > 1e-9 {
		t.Errorf("post-crash makespan = %v, want 23.5", last.Makespan)
	}
}

func TestTransientStallRidesOutOnRetries(t *testing.T) {
	devs, base := constDevices(t, 4, 2, 2)
	// Stall shorter than the retry budget: the device recovers in place.
	oracle := injected(t, "stall:dev=1,iter=3,len=2", 7, base)
	tr, err := Run(devs, oracle, 80, 10, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Completed || len(tr.Dropped) != 0 || tr.Rebalances != 0 {
		t.Fatalf("transient stall escalated: %+v", tr)
	}
	if tr.Retries != 2 {
		t.Errorf("retries = %d, want 2 (one per stalled call)", tr.Retries)
	}
	// Backoff is charged to the stalled iteration: retryBackoff, then
	// double it, on top of the device's 10s share, making it the
	// iteration's critical path.
	st := tr.Steps[3]
	if want := retryBackoff + 2*retryBackoff; math.Abs(st.RetrySeconds-want) > 1e-12 {
		t.Errorf("retry seconds = %v, want %v", st.RetrySeconds, want)
	}
	if want := 10 + 3*retryBackoff; math.Abs(st.Makespan-want) > 1e-9 {
		t.Errorf("stalled iteration makespan = %v, want %v", st.Makespan, want)
	}
	if tr.UnitsProcessed != 80*10 {
		t.Errorf("units processed = %d, want %d", tr.UnitsProcessed, 80*10)
	}
}

func TestStallBeyondRetryBudgetDropsDevice(t *testing.T) {
	devs, base := constDevices(t, 4, 2, 2)
	// A 10-call stall outlasts every retry: confirmed failure, device dropped.
	oracle := injected(t, "stall:dev=2,iter=4,len=10", 7, base)
	tr, err := Run(devs, oracle, 80, 12, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Completed {
		t.Fatal("run did not complete after dropping the stalled device")
	}
	if !reflect.DeepEqual(tr.Dropped, []int{2}) {
		t.Errorf("dropped = %v, want [2]", tr.Dropped)
	}
	if tr.Rebalances != 1 || tr.UnitsProcessed != 80*12 {
		t.Errorf("rebalances = %d, units = %d; want 1, %d", tr.Rebalances, tr.UnitsProcessed, 80*12)
	}
}

func TestSlowdownDetectedAndDemoted(t *testing.T) {
	devs, base := constDevices(t, 4, 2, 2)
	// Device 0 degrades 3x at iteration 4: observed 30s vs predicted 10s.
	oracle := injected(t, "slow:dev=0,iter=4,factor=3", 7, base)
	tr, err := Run(devs, oracle, 80, 15, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Completed || tr.UnitsProcessed != 80*15 {
		t.Fatalf("demotion lost work: %+v", tr)
	}
	if !reflect.DeepEqual(tr.Demoted, []int{0}) {
		t.Errorf("demoted = %v, want [0]", tr.Demoted)
	}
	if len(tr.Dropped) != 0 {
		t.Errorf("slowdown should demote, not drop: %v", tr.Dropped)
	}
	if tr.Rebalances != 1 {
		t.Errorf("rebalances = %d, want 1", tr.Rebalances)
	}
	// Demoted model: effective speed 4/3, so FPM gives T = 80/(4/3+2+2) =
	// 15s and units [20 30 30]; the degraded device then matches its
	// prediction exactly and no further anomalies fire.
	if !reflect.DeepEqual(tr.FinalUnits, []int{20, 30, 30}) {
		t.Errorf("final units = %v, want [20 30 30]", tr.FinalUnits)
	}
	last := tr.Steps[len(tr.Steps)-1]
	if math.Abs(last.Makespan-15) > 1e-6 {
		t.Errorf("post-demotion makespan = %v, want 15", last.Makespan)
	}
	anomalies := 0
	for _, e := range tr.Events {
		if e.Kind == EventAnomaly {
			anomalies++
		}
	}
	if anomalies != 3 {
		t.Errorf("anomaly events = %d, want exactly the 3 strikes", anomalies)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	spec := "crash:dev=0,iter=6;slow:dev=1,iter=2,factor=2.5"
	run := func() Trace {
		devs, base := constDevices(t, 4, 2, 2)
		tr, err := Run(devs, injected(t, spec, 99, base), 80, 16, Options{MigrationCost: 1e-4})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical (spec, seed) produced different traces:\n%+v\n%+v", a, b)
	}
}

func TestRunValidation(t *testing.T) {
	devs, base := constDevices(t, 1)
	oracle := injected(t, "", 1, base)
	if _, err := Run(nil, oracle, 10, 5, Options{}); err == nil {
		t.Error("no devices accepted")
	}
	if _, err := Run(devs, nil, 10, 5, Options{}); err == nil {
		t.Error("nil oracle accepted")
	}
	if _, err := Run(devs, oracle, 0, 5, Options{}); err == nil {
		t.Error("zero units accepted")
	}
	if _, err := Run(devs, oracle, 10, 0, Options{}); err == nil {
		t.Error("zero iterations accepted")
	}
	if _, err := Run(devs, oracle, 10, 5, Options{MigrationCost: -1}); err == nil {
		t.Error("negative migration cost accepted")
	}
}

func TestAllDevicesCrashIsAnError(t *testing.T) {
	devs, base := constDevices(t, 2, 2)
	oracle := injected(t, "crash:dev=0,iter=3;crash:dev=1,iter=3", 1, base)
	_, err := Run(devs, oracle, 40, 10, Options{})
	if err == nil {
		t.Fatal("run with every device crashed should fail")
	}
}

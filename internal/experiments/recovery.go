package experiments

import (
	"fmt"

	"fpmpart/internal/faults"
	"fpmpart/internal/resilient"
)

// Recovery is the resilient-execution experiment: a device crashes partway
// through the iterative application and the run either re-partitions the
// survivors with their functional performance models (resilient.FPMRepartition),
// redistributes proportionally to observed speeds (resilient.Proportional,
// the dynamic balancer's rule), or does nothing (resilient.NoRecovery).
// Each policy runs with the crash at 25%, 50% and 75% progress and is
// compared against the fault-free FPM run — extending the paper's
// static-vs-dynamic argument to the unstable-platform case it could not
// test. On this platform no survivor's new share crosses a memory cliff, so
// both recovery policies land on nearly the same split.
//
// spec overrides the injected faults (ParseSpec syntax); when empty, the
// default scenario crashes the first GPU. seed resolves any seed-drawn
// fault parameters.
func Recovery(models *Models, n, iters int, spec string, seed int64) (*Table, error) {
	if n <= 0 {
		n = 60
	}
	if iters <= 0 {
		iters = n
	}
	devs := models.Devices()
	base := models.DeviceOracle()
	units := n * n

	t := &Table{
		ID: "recovery",
		Title: fmt.Sprintf("Fault recovery at n=%d (%d iterations, %d²=%d units)",
			n, iters, n, units),
		Columns: []string{
			"policy", "fault", "completed", "rebalances", "units processed",
			"units lost", "retries", "total s", "overhead vs fault-free",
		},
		Notes: []string{
			"FPM re-partitioning restores a static balanced distribution on the survivors in one rebalance",
			"proportional redistribution by observed units/second lands within a percent of FPM: no survivor's new share crosses a memory cliff",
			"no-recovery loses the victim's share of every remaining iteration",
		},
	}

	// The fault-free reference: the same runtime with nothing injected.
	freeOracle, err := wrapSpec("", seed, base)
	if err != nil {
		return nil, err
	}
	free, err := resilient.Run(devs, freeOracle, units, iters, resilient.Options{
		MigrationCost: models.MigrationCostPerUnit(),
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: fault-free reference: %w", err)
	}
	t.AddRow("fault-free", "none", free.Completed, free.Rebalances, free.UnitsProcessed,
		free.LostUnits, free.Retries, free.TotalSeconds, "—")

	specs := []struct{ label, spec string }{}
	if spec != "" {
		specs = append(specs, struct{ label, spec string }{"custom", spec})
	} else {
		for _, frac := range []int{25, 50, 75} {
			at := iters * frac / 100
			specs = append(specs, struct{ label, spec string }{
				fmt.Sprintf("crash gpu0 @%d%%", frac),
				fmt.Sprintf("crash:dev=0,iter=%d", at),
			})
		}
	}

	policies := []resilient.Policy{
		resilient.FPMRepartition, resilient.Proportional, resilient.NoRecovery,
	}
	for _, sp := range specs {
		for _, pol := range policies {
			oracle, err := wrapSpec(sp.spec, seed, base)
			if err != nil {
				return nil, err
			}
			tr, err := resilient.Run(devs, oracle, units, iters, resilient.Options{
				Policy:        pol,
				MigrationCost: models.MigrationCostPerUnit(),
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: recovery %s/%s: %w", pol, sp.label, err)
			}
			overhead := fmt.Sprintf("%.1f%%", (tr.TotalSeconds/free.TotalSeconds-1)*100)
			t.AddRow(pol.String(), sp.label, tr.Completed, tr.Rebalances, tr.UnitsProcessed,
				tr.LostUnits, tr.Retries, tr.TotalSeconds, overhead)
		}
	}
	return t, nil
}

// wrapSpec builds a fresh injector-wrapped oracle for one run (injectors
// carry per-run stall state, so each run gets its own).
func wrapSpec(spec string, seed int64, base func(device, units int) float64) (faults.Oracle, error) {
	sp, err := faults.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	in, err := faults.NewInjector(sp, seed)
	if err != nil {
		return nil, err
	}
	return in.Wrap(base), nil
}

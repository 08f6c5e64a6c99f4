package partition

import (
	"testing"

	"fpmpart/internal/fpm"
	"fpmpart/internal/telemetry"
)

// TestTelemetryRecordsOnlyWhenEnabled: the process-wide registry starts
// disabled and a partition then records nothing; enabled, a run moves the
// run counter.
func TestTelemetryRecordsOnlyWhenEnabled(t *testing.T) {
	reg := telemetry.Default()
	if reg.Enabled() {
		t.Fatal("telemetry enabled by default")
	}
	devs := []Device{
		{Name: "gpu", Model: fpm.MustPiecewiseLinear([]fpm.Point{{Size: 100, Speed: 900}, {Size: 4000, Speed: 800}})},
		{Name: "cpu", Model: fpm.MustPiecewiseLinear([]fpm.Point{{Size: 100, Speed: 80}, {Size: 4000, Speed: 105}})},
	}
	runs := reg.Counter("partition_runs_total", "algorithm", "fpm")
	before := runs.Value()
	if _, err := FPM(devs, 2000, FPMOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := runs.Value(); got != before {
		t.Errorf("disabled run moved the run counter (%v -> %v)", before, got)
	}

	reg.SetEnabled(true)
	defer reg.SetEnabled(false)
	res, err := FPM(devs, 2000, FPMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations <= 0 || !res.Converged {
		t.Errorf("diagnostics: iterations=%d converged=%v", res.Iterations, res.Converged)
	}
	if got := runs.Value(); got == before {
		t.Errorf("enabled run did not move the run counter (%v -> %v)", before, got)
	}
}

// TestFPMPartitionsMonotoneCubic: the FPM solver takes any SpeedFunction,
// not only the piecewise-linear one.
func TestFPMPartitionsMonotoneCubic(t *testing.T) {
	cubic, err := fpm.NewMonotoneCubic([]fpm.Point{
		{Size: 10, Speed: 50}, {Size: 100, Speed: 100}, {Size: 1000, Speed: 110},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := FPM([]Device{
		{Name: "cubic", Model: cubic},
		{Name: "const", Model: fpm.MustPiecewiseLinear([]fpm.Point{{Size: 10, Speed: 50}, {Size: 1000, Speed: 50}})},
	}, 800, FPMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 800 {
		t.Errorf("total = %d", res.Total)
	}
	if im := res.Imbalance(); im > 0.05 {
		t.Errorf("imbalance = %v", im)
	}
}

package telemetry_test

// The default-registry hygiene scan: importing every instrumented package
// registers its package-level instruments, then Hygiene walks the whole
// default registry. This is the CI gate that keeps every metric name this
// repo ships snake_case, unit-suffixed, and schema-consistent.

import (
	"testing"

	"fpmpart/internal/telemetry"

	_ "fpmpart/internal/clusterd"
	_ "fpmpart/internal/par"
	_ "fpmpart/internal/partition"
	_ "fpmpart/internal/refine"
	_ "fpmpart/internal/service"
	_ "fpmpart/internal/workerd"
)

func TestDefaultRegistryHygiene(t *testing.T) {
	infos := telemetry.Default().MetricInfos()
	if len(infos) == 0 {
		t.Fatal("default registry is empty — instrumented packages not imported?")
	}
	for _, v := range telemetry.Hygiene(telemetry.Default()) {
		t.Errorf("metric hygiene: %s", v)
	}
}

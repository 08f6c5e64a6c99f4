package telemetry

import (
	"strings"
	"testing"
)

func violationsContain(vs []string, substr string) bool {
	for _, v := range vs {
		if strings.Contains(v, substr) {
			return true
		}
	}
	return false
}

func TestHygieneCleanRegistry(t *testing.T) {
	r := New()
	r.Counter("good_requests_total", "route", "x")
	r.Gauge("good_inflight_requests")
	r.Histogram("good_latency_seconds", nil)
	r.Histogram("good_solver_iterations", nil)
	r.Histogram("good_problem_units", nil)
	if vs := Hygiene(r); len(vs) != 0 {
		t.Fatalf("clean registry flagged: %v", vs)
	}
}

func TestHygieneNaming(t *testing.T) {
	r := New()
	r.Counter("BadName_total")
	r.Counter("double__underscore_total")
	r.Counter("trailing_underscore_total_")
	vs := Hygiene(r)
	for _, name := range []string{"BadName_total", "double__underscore_total", "trailing_underscore_total_"} {
		if !violationsContain(vs, name+": name is not snake_case") {
			t.Fatalf("missing snake_case violation for %s in %v", name, vs)
		}
	}
}

func TestHygieneKindSuffixes(t *testing.T) {
	r := New()
	r.Counter("requests_count")           // counter without _total
	r.Gauge("occupancy_total")            // gauge pretending to be a counter
	r.Histogram("latency", nil)           // histogram without a unit
	r.Histogram("gemm_speed_gflops", nil) // a unit outside the vocabulary
	vs := Hygiene(r)
	if !violationsContain(vs, "requests_count: counter missing _total") {
		t.Fatalf("missing counter violation: %v", vs)
	}
	if !violationsContain(vs, "occupancy_total: gauge must not end in _total") {
		t.Fatalf("missing gauge violation: %v", vs)
	}
	for _, name := range []string{"latency", "gemm_speed_gflops"} {
		if !violationsContain(vs, name+": histogram missing unit suffix") {
			t.Fatalf("missing histogram violation for %s: %v", name, vs)
		}
	}
}

func TestHygieneLabelKeys(t *testing.T) {
	r := New()
	r.Counter("labelled_total", "Route", "x")
	vs := Hygiene(r)
	if !violationsContain(vs, `label key "Route"`) {
		t.Fatalf("missing label-key violation: %v", vs)
	}
}

func TestHygieneInconsistentLabels(t *testing.T) {
	r := New()
	r.Counter("split_total", "route", "a")
	r.Counter("split_total", "code", "200")
	vs := Hygiene(r)
	if !violationsContain(vs, "split_total: inconsistent label keys") {
		t.Fatalf("missing label-set violation: %v", vs)
	}
}

package service

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"fpmpart/internal/telemetry"
)

// TestWarmPartitionAllocCeiling pins the allocation bill of a warm cache
// hit on POST /v1/partition, measured straight through the handler (no
// network, but including ~15 allocs of httptest request/recorder scaffolding
// per run). Pooled request-read buffers and decoded requests, the cache-key
// scratch, the appended answer, the per-route series resolved once and trace
// stages closed by value, not by closure, bring the measured cost to 45 allocs
// traced / 39 untraced (48 / 43 under -race, whose sync.Pool drops entries at
// random); the ceilings sit ≈5% over the -race counts, 11–15% over the plain
// ones, and fail the build if someone reintroduces per-request buffers,
// reflection encoding, label lookups or fmt-based key construction on the
// hot path.
func TestWarmPartitionAllocCeiling(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     Config
		ceiling float64
	}{
		{"traced", Config{}, 50},
		{"untraced", Config{DisableRequestTracing: true}, 45},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := s.Handler()
			data, err := SyntheticModel(24, 800).MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			put := httptest.NewRequest(http.MethodPut, "/v1/models/bench0", bytes.NewReader(data))
			put.Header.Set("Content-Type", "application/json")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, put)
			if rec.Code != http.StatusOK {
				t.Fatalf("PUT model: %d: %s", rec.Code, rec.Body.String())
			}
			body := []byte(`{"models":["bench0"],"n":5000}`)
			do := func() {
				req := httptest.NewRequest(http.MethodPost, "/v1/partition", bytes.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Fatalf("partition: %d: %s", rec.Code, rec.Body.String())
				}
			}
			do() // populate the cache; every measured run is a warm hit
			avg := testing.AllocsPerRun(500, do)
			t.Logf("warm partition hit (%s): %.1f allocs/op (ceiling %.0f)", tc.name, avg, tc.ceiling)
			if avg > tc.ceiling {
				t.Errorf("warm partition hit allocates %.1f/op, ceiling %.0f — hot path regressed", avg, tc.ceiling)
			}
		})
	}
}

// TestColdPartitionAllocCeiling pins the allocation bill of a cache miss on
// POST /v1/partition — decode, resolve, one 24-device solve, cache insert,
// encode — in the production configuration (registry enabled, tracing on, no
// event sink), through the handler like the warm test. With the per-solve
// memo maps, inverter slices and unsinked telemetry events gone, the answer
// appended from the cached solution, the device list pooled and the six trace
// stages closed by value it measures 86 allocs (93 under -race; 414 before
// the solver lost its memo maps, 120 before the appender, 92 with a closure
// per stage; the ceiling is ≈5% over the -race count). Every
// solve's garbage is multiplied by the cold request rate, and with a cache
// a third the size the collector's heap goal is small enough that garbage
// decides how often it runs, so the ceiling fails the build before that
// margin erodes.
func TestColdPartitionAllocCeiling(t *testing.T) {
	reg := telemetry.Default()
	prev := reg.Enabled()
	reg.SetEnabled(true)
	defer reg.SetEnabled(prev)

	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	ids := make([]string, 24)
	for i := range ids {
		ids[i] = fmt.Sprintf("cold%d", i)
		if _, err := s.Models.Put(ids[i], SyntheticModel(16, 200+25*float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	prefix := `{"models":["` + strings.Join(ids, `","`) + `"],"n":`
	n := 2000
	do := func() {
		n++ // a size the cache has never seen
		req := httptest.NewRequest(http.MethodPost, "/v1/partition", strings.NewReader(fmt.Sprintf("%s%d}", prefix, n)))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("partition: %d: %s", rec.Code, rec.Body.String())
		}
	}
	const ceiling = 98
	avg := testing.AllocsPerRun(500, do)
	t.Logf("cold partition miss: %.1f allocs/op (ceiling %d)", avg, ceiling)
	if avg > ceiling {
		t.Errorf("cold partition miss allocates %.1f/op, ceiling %d — solver path regressed", avg, ceiling)
	}
	if got := s.CacheLen(); got < 500 {
		t.Errorf("cache holds %d entries after 500+ distinct requests: the runs were not misses", got)
	}
}

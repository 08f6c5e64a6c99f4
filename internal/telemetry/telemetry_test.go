package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeDisabledAreNoops(t *testing.T) {
	r := New()
	c := r.Counter("c_total")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{1, 2})
	c.Inc()
	g.Set(5)
	h.Observe(1.5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatalf("disabled registry recorded: c=%v g=%v h=%d", c.Value(), g.Value(), h.Count())
	}
	r.SetEnabled(true)
	c.Inc()
	c.Add(2)
	c.Add(-5) // counters never go down
	g.Set(5)
	g.Add(-2)
	h.Observe(1.5)
	h.Observe(10)
	if c.Value() != 3 {
		t.Errorf("counter = %v, want 3", c.Value())
	}
	if g.Value() != 3 {
		t.Errorf("gauge = %v, want 3", g.Value())
	}
	if h.Count() != 2 || h.Sum() != 11.5 {
		t.Errorf("histogram count=%d sum=%v, want 2, 11.5", h.Count(), h.Sum())
	}
}

func TestRegistryHandlesIdentityAndKinds(t *testing.T) {
	r := New()
	a := r.Counter("x_total", "device", "gpu0")
	b := r.Counter("x_total", "device", "gpu0")
	if a != b {
		t.Error("same identity returned different handles")
	}
	if r.Counter("x_total", "device", "gpu1") == a {
		t.Error("different labels returned the same handle")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Gauge("x_total", "device", "gpu0")
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	r.SetEnabled(true)
	h := r.Histogram("lat_seconds", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // dropped
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE lat_seconds histogram",
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		"lat_seconds_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusDeterministicAndLabelled(t *testing.T) {
	r := New()
	r.SetEnabled(true)
	r.Counter("msgs_total", "net", "intra").Add(3)
	r.Counter("msgs_total", "net", "inter").Add(7)
	r.Gauge("imbalance").Set(0.04)
	var a, b bytes.Buffer
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("exposition is not deterministic")
	}
	if !strings.Contains(a.String(), `msgs_total{net="inter"} 7`) {
		t.Errorf("missing labelled series:\n%s", a.String())
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := New()
	r.SetEnabled(true)
	r.Counter("runs_total").Add(2)
	r.Histogram("reps", []float64{5, 10}).Observe(7)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap["runs_total"] != 2.0 {
		t.Errorf("runs_total = %v, want 2", snap["runs_total"])
	}
	hist, ok := snap["reps"].(map[string]any)
	if !ok || hist["count"] != 1.0 {
		t.Errorf("reps snapshot = %v", snap["reps"])
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := New()
	r.SetEnabled(true)
	c := r.Counter("n_total")
	h := r.Histogram("v", []float64{50})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i % 100))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %v, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
}

func TestHTTPEndpoint(t *testing.T) {
	r := New()
	r.SetEnabled(true)
	r.Counter("hits_total").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body)
	}
	if out := get("/metrics"); !strings.Contains(out, "hits_total 1") {
		t.Errorf("/metrics missing counter:\n%s", out)
	}
	var snap map[string]any
	if err := json.Unmarshal([]byte(get("/metrics.json")), &snap); err != nil {
		t.Errorf("/metrics.json invalid: %v", err)
	}
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", got, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid ExpBuckets did not panic")
		}
	}()
	ExpBuckets(0, 2, 3)
}

package service

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"fpmpart/internal/telemetry"
)

// benchmarkServe measures warm-cache partition latency over a real HTTP
// round trip (httptest server + keep-alive client), the configuration under
// which the tracing overhead claim is made: the trace and flight-recorder
// cost must stay below 5% of the served request time.
func benchmarkServe(b *testing.B, cfg Config) {
	reg := telemetry.Default()
	prev := reg.Enabled()
	reg.SetEnabled(true)
	defer reg.SetEnabled(prev)

	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	model := SyntheticModel(24, 800)
	data, err := model.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/bench0", bytes.NewReader(data))
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		b.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("PUT model: %d", resp.StatusCode)
	}

	body := []byte(`{"models":["bench0"],"n":5000}`)
	do := func() {
		r, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/partition", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		r.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(r)
		if err != nil {
			b.Fatal(err)
		}
		// Read to EOF, so the keep-alive connection is reused: a body
		// closed unread costs every iteration a TCP connect.
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("partition: %d", resp.StatusCode)
		}
	}
	do() // populate the cache: every timed iteration is a warm hit
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		do()
	}
}

// BenchmarkServeTraced is the production configuration: request tracing and
// the flight recorder on.
func BenchmarkServeTraced(b *testing.B) {
	benchmarkServe(b, Config{})
}

// BenchmarkServeUntraced disables request tracing; the difference to
// BenchmarkServeTraced is the whole observability overhead per request.
func BenchmarkServeUntraced(b *testing.B) {
	benchmarkServe(b, Config{DisableRequestTracing: true})
}

package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"fpmpart/internal/telemetry"
)

// withTelemetry enables the default registry for one test and restores the
// prior state afterwards.
func withTelemetry(t *testing.T) {
	t.Helper()
	reg := telemetry.Default()
	prev := reg.Enabled()
	reg.SetEnabled(true)
	t.Cleanup(func() { reg.SetEnabled(prev) })
}

// spanNames flattens a snapshot's span tree into a name set.
func spanNames(spans []*telemetry.SpanSnapshot, into map[string]bool) {
	for _, s := range spans {
		into[s.Name] = true
		spanNames(s.Children, into)
	}
}

func partitionBody(n int, models ...string) []byte {
	req := map[string]any{"models": models, "n": n}
	b, _ := json.Marshal(req)
	return b
}

func TestRequestTracingEndToEnd(t *testing.T) {
	withTelemetry(t)
	s, ts := newTestServer(t, Config{})
	putJSONModel(t, ts.URL, "dev0", testModel(t))

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/partition", strings.NewReader(string(partitionBody(1000, "dev0"))))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", "trace-e2e-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partition: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "trace-e2e-1" {
		t.Fatalf("X-Request-Id echoed as %q, want trace-e2e-1", got)
	}

	rt := s.recorder.Get("trace-e2e-1")
	if rt == nil {
		t.Fatal("trace not retained in flight recorder")
	}
	snap := rt.Snapshot()
	if snap.Route != "partition" || snap.Status != http.StatusOK {
		t.Fatalf("unexpected snapshot: route=%q status=%d", snap.Route, snap.Status)
	}
	names := map[string]bool{}
	spanNames(snap.Spans, names)
	for _, want := range []string{"resolve", "cache", "solve", "gate.wait", "equal-time", "serialize"} {
		if !names[want] {
			t.Fatalf("span %q missing from cold trace: %v", want, names)
		}
	}
	if snap.Attrs["cache"] != "miss" {
		t.Fatalf("cache attr = %q, want miss", snap.Attrs["cache"])
	}
	if snap.Attrs["solve_iterations"] == "" {
		t.Fatal("solve_iterations attr missing")
	}

	// Warm repeat: same key hits the cache, no solve span, cache=hit.
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/partition", strings.NewReader(string(partitionBody(1000, "dev0"))))
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set("X-Request-Id", "trace-e2e-2")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	warm := s.recorder.Get("trace-e2e-2")
	if warm == nil {
		t.Fatal("warm trace not retained")
	}
	wsnap := warm.Snapshot()
	wnames := map[string]bool{}
	spanNames(wsnap.Spans, wnames)
	if wnames["solve"] || !wnames["cache"] || !wnames["serialize"] {
		t.Fatalf("warm trace spans wrong: %v", wnames)
	}
	if wsnap.Attrs["cache"] != "hit" {
		t.Fatalf("warm cache attr = %q, want hit", wsnap.Attrs["cache"])
	}
}

func TestRequestIDGeneratedAndTraceparentAdopted(t *testing.T) {
	withTelemetry(t)
	_, ts := newTestServer(t, Config{})

	// No header: an ID is generated and returned.
	resp, _ := doReq(t, http.MethodGet, ts.URL+"/healthz", "", nil)
	if resp.Header.Get("X-Request-Id") == "" {
		t.Fatal("generated X-Request-Id missing from response")
	}

	// W3C traceparent: the trace-id field is adopted.
	tp := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("Traceparent", tp)
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if got := r2.Header.Get("X-Request-Id"); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("traceparent trace-id not adopted: %q", got)
	}

	// A malformed X-Request-Id is replaced, not echoed.
	req3, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req3.Header.Set("X-Request-Id", "bad id with spaces")
	r3, err := http.DefaultClient.Do(req3)
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if got := r3.Header.Get("X-Request-Id"); got == "" || strings.Contains(got, " ") {
		t.Fatalf("malformed id not replaced: %q", got)
	}
}

func TestDebugRequestsEndpoint(t *testing.T) {
	withTelemetry(t)
	_, ts := newTestServer(t, Config{})
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-Id", "debug-ep-1")
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()

	resp, body := doReq(t, http.MethodGet, ts.URL+"/debug/requests", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/requests: %d", resp.StatusCode)
	}
	var list struct {
		RecordedTotal uint64 `json:"recorded_total"`
		Recent        []struct {
			ID string `json:"id"`
		} `json:"recent"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatalf("list not JSON: %v", err)
	}
	if list.RecordedTotal == 0 || len(list.Recent) == 0 {
		t.Fatalf("empty recorder after a request: %+v", list)
	}
	found := false
	for _, e := range list.Recent {
		if e.ID == "debug-ep-1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("debug-ep-1 not in recent: %+v", list.Recent)
	}

	resp, body = doReq(t, http.MethodGet, ts.URL+"/debug/requests?id=debug-ep-1", "", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"route": "healthz"`) {
		t.Fatalf("drill-down: %d %s", resp.StatusCode, body)
	}
}

func TestDebugRequestsDisabled(t *testing.T) {
	withTelemetry(t)
	_, ts := newTestServer(t, Config{DisableRequestTracing: true})
	resp, _ := doReq(t, http.MethodGet, ts.URL+"/debug/requests", "", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/requests with tracing disabled: %d, want 404", resp.StatusCode)
	}
	if resp.Header.Get("X-Request-Id") != "" {
		t.Fatal("X-Request-Id must not be set when tracing is disabled")
	}
}

func TestPanicRecovery(t *testing.T) {
	withTelemetry(t)
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /boom", s.instrument("boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	}))
	mux.HandleFunc("GET /fine", s.instrument("fine", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"ok": "yes"})
	}))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	panicsBefore := telemetry.Default().Counter("http_panics_total").Value()
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/boom", nil)
	req.Header.Set("X-Request-Id", "panic-req-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("panic must not kill the connection: %v", err)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("500 body not JSON: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || e.Error != "internal server error" {
		t.Fatalf("panic response: %d %q", resp.StatusCode, e.Error)
	}
	if got := telemetry.Default().Counter("http_panics_total").Value(); got != panicsBefore+1 {
		t.Fatalf("http_panics_total = %v, want %v", got, panicsBefore+1)
	}

	// The trace is retained as errored, annotated with the panic value.
	rt := s.recorder.Get("panic-req-1")
	if rt == nil || rt.Status() != http.StatusInternalServerError {
		t.Fatalf("panic trace not retained as 500: %v", rt)
	}
	if snap := rt.Snapshot(); snap.Attrs["panic"] != "kaboom" {
		t.Fatalf("panic attr = %q", snap.Attrs["panic"])
	}
	if len(s.recorder.Errored()) == 0 {
		t.Fatal("errored reservoir empty after panic")
	}

	// The server keeps serving.
	r2, err := http.Get(ts.URL + "/fine")
	if err != nil || r2.StatusCode != http.StatusOK {
		t.Fatalf("server dead after panic: %v %v", err, r2)
	}
	r2.Body.Close()
}

func TestInstrumentStatusLabels(t *testing.T) {
	withTelemetry(t)
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /status/{code}", s.instrument("status", func(w http.ResponseWriter, r *http.Request) {
		switch r.PathValue("code") {
		case "404":
			writeError(w, http.StatusNotFound, "nope")
		case "500":
			writeError(w, http.StatusInternalServerError, "broken")
		default:
			writeJSON(w, http.StatusOK, map[string]string{"ok": "yes"})
		}
	}))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	count := func(code int) float64 {
		return requestsTotal("status", code).Value()
	}
	secondsBefore := requestSeconds("status").Count()
	before := map[int]float64{200: count(200), 404: count(404), 500: count(500)}
	for _, code := range []string{"200", "200", "404", "500"} {
		resp, err := http.Get(ts.URL + "/status/" + code)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if d := count(200) - before[200]; d != 2 {
		t.Fatalf("200 delta = %v, want 2", d)
	}
	if d := count(404) - before[404]; d != 1 {
		t.Fatalf("404 delta = %v, want 1", d)
	}
	if d := count(500) - before[500]; d != 1 {
		t.Fatalf("500 delta = %v, want 1", d)
	}
	if d := requestSeconds("status").Count() - secondsBefore; d != 4 {
		t.Fatalf("request_seconds observations delta = %d, want 4", d)
	}
}

func TestInstrumentInflightDrainsToZero(t *testing.T) {
	withTelemetry(t)
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /hold", s.instrument("hold", func(w http.ResponseWriter, _ *http.Request) {
		started <- struct{}{}
		<-release
		writeJSON(w, http.StatusOK, map[string]string{"ok": "yes"})
	}))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	gauge := telemetry.Default().Gauge("fpmd_inflight_requests")
	base := gauge.Value()
	const n = 4
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/hold")
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	for i := 0; i < n; i++ {
		<-started
	}
	if got := gauge.Value() - base; got != n {
		t.Fatalf("in-flight while held = %v, want %d", got, n)
	}
	close(release)
	wg.Wait()
	if got := gauge.Value() - base; got != 0 {
		t.Fatalf("in-flight after drain = %v, want 0", got)
	}
}

func TestInstrumentMetricsOnPanicPath(t *testing.T) {
	withTelemetry(t)
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /pboom", s.instrument("pboom", func(http.ResponseWriter, *http.Request) {
		panic(fmt.Errorf("deliberate"))
	}))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	gauge := telemetry.Default().Gauge("fpmd_inflight_requests")
	base := gauge.Value()
	secondsBefore := requestSeconds("pboom").Count()
	before500 := requestsTotal("pboom", 500).Value()
	resp, err := http.Get(ts.URL + "/pboom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if d := gauge.Value() - base; d != 0 {
		t.Fatalf("in-flight leaked on panic: %v", d)
	}
	if d := requestSeconds("pboom").Count() - secondsBefore; d != 1 {
		t.Fatalf("latency histogram skipped on panic: delta %d", d)
	}
	if d := requestsTotal("pboom", 500).Value() - before500; d != 1 {
		t.Fatalf("requests_total{code=500} delta = %v, want 1", d)
	}
}

func TestServiceMetricHygiene(t *testing.T) {
	withTelemetry(t)
	_, ts := newTestServer(t, Config{})
	putJSONModel(t, ts.URL, "hyg0", testModel(t))
	resp, _ := doReq(t, http.MethodPost, ts.URL+"/v1/partition", "application/json", partitionBody(500, "hyg0"))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partition: %d", resp.StatusCode)
	}
	// Exercising the server registers the dynamic route/code label series;
	// all of them must pass the hygiene rules.
	for _, v := range telemetry.Hygiene(telemetry.Default()) {
		t.Errorf("metric hygiene: %s", v)
	}
}

func TestSlowestReservoirOrdering(t *testing.T) {
	withTelemetry(t)
	s, ts := newTestServer(t, Config{})
	putJSONModel(t, ts.URL, "slow0", testModel(t))
	// A cold solve then warm hits: the cold request should surface in the
	// slowest reservoir at or above the warm ones.
	for i := 0; i < 5; i++ {
		resp, _ := doReq(t, http.MethodPost, ts.URL+"/v1/partition", "application/json", partitionBody(2000, "slow0"))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("partition %d: %d", i, resp.StatusCode)
		}
	}
	slow := s.recorder.Slowest()
	if len(slow) == 0 {
		t.Fatal("slowest reservoir empty")
	}
	for i := 1; i < len(slow); i++ {
		if slow[i].Duration() > slow[i-1].Duration() {
			t.Fatalf("Slowest not sorted: %v then %v", slow[i-1].Duration(), slow[i].Duration())
		}
	}
}

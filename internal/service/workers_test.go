package service

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"

	"fpmpart/internal/fpm"
	"fpmpart/internal/refine"
	"fpmpart/internal/workerd"
)

// startTestWorker runs a real worker HTTP endpoint (shard execution on the
// local kernels) and returns its base URL.
func startTestWorker(t *testing.T, name string) string {
	t.Helper()
	w, err := workerd.NewWorker(workerd.WorkerOptions{Name: name, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	return srv.URL
}

// registerWorker posts a registration with the given speed model and returns
// the HTTP status plus decoded body.
func registerWorker(t *testing.T, base, name, url string) (int, map[string]json.RawMessage) {
	t.Helper()
	model, err := testModel(t).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(workerd.Registration{Name: name, URL: url, Cores: 2, Model: model})
	resp, data := doReq(t, http.MethodPost, base+"/v1/workers", "application/json", body)
	out := map[string]json.RawMessage{}
	_ = json.Unmarshal(data, &out)
	return resp.StatusCode, out
}

// TestWorkerEndpointsLifecycle walks the whole worker-backend HTTP surface:
// register two real workers (registration publishes their models and
// calibrates the network), list, heartbeat, execute a verified job across
// them, and remove.
func TestWorkerEndpointsLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{
		ModelDir:              t.TempDir(),
		EnableWorkers:         true,
		DisableRequestTracing: true,
	})
	t.Cleanup(s.Close)

	w1 := startTestWorker(t, "w1")
	w2 := startTestWorker(t, "w2")

	status, reg := registerWorker(t, ts.URL, "w1", w1)
	if status != http.StatusOK {
		t.Fatalf("register w1: status %d: %v", status, reg)
	}
	var ttl float64
	if err := json.Unmarshal(reg["heartbeat_ttl_seconds"], &ttl); err != nil || ttl <= 0 {
		t.Fatalf("register response missing heartbeat_ttl_seconds: %v", reg)
	}
	if status, _ := registerWorker(t, ts.URL, "w2", w2); status != http.StatusOK {
		t.Fatalf("register w2: status %d", status)
	}

	// Registration published each worker's model under its name.
	for _, name := range []string{"w1", "w2"} {
		if _, err := s.Models.Get(name); err != nil {
			t.Fatalf("model %q not published by registration: %v", name, err)
		}
	}

	// List reports both alive.
	resp, data := doReq(t, http.MethodGet, ts.URL+"/v1/workers", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list workers: status %d: %s", resp.StatusCode, data)
	}
	var list struct {
		Workers []workerd.WorkerInfo `json:"workers"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatalf("list decode: %v: %s", err, data)
	}
	if len(list.Workers) != 2 || !list.Workers[0].Alive || !list.Workers[1].Alive {
		t.Fatalf("want 2 alive workers, got %+v", list.Workers)
	}

	// Heartbeats: known worker 200, unknown 404 (the re-register signal).
	if resp, data := doReq(t, http.MethodPost, ts.URL+"/v1/workers/w1/heartbeat", "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat w1: status %d: %s", resp.StatusCode, data)
	}
	if resp, _ := doReq(t, http.MethodPost, ts.URL+"/v1/workers/ghost/heartbeat", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("heartbeat unknown: status %d, want 404", resp.StatusCode)
	}

	// A verified job over both workers via the HTTP surface.
	body, _ := json.Marshal(workerd.ExecuteRequest{Rows: 96, K: 32, N: 32, Verify: true})
	resp, data = doReq(t, http.MethodPost, ts.URL+"/v1/execute", "application/json", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("execute: status %d: %s", resp.StatusCode, data)
	}
	var report workerd.ExecuteReport
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("execute decode: %v: %s", err, data)
	}
	if !report.Verified || !report.BitExact {
		t.Fatalf("execute not bit-exact: %s", data)
	}
	if len(report.Workers) != 2 {
		t.Fatalf("execute used %v, want both workers", report.Workers)
	}

	// Remove is idempotent-with-404 on the second call.
	if resp, data := doReq(t, http.MethodDelete, ts.URL+"/v1/workers/w1", "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("remove w1: status %d: %s", resp.StatusCode, data)
	}
	if resp, _ := doReq(t, http.MethodDelete, ts.URL+"/v1/workers/w1", "", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("second remove: status %d, want 404", resp.StatusCode)
	}
}

// TestWorkerEndpointsRejections: bad registrations and unusable execute
// requests are the client's 4xx, not 5xx — and a server without
// EnableWorkers does not mount the routes at all.
func TestWorkerEndpointsRejections(t *testing.T) {
	s, ts := newTestServer(t, Config{
		ModelDir:              t.TempDir(),
		EnableWorkers:         true,
		DisableRequestTracing: true,
	})
	t.Cleanup(s.Close)

	model, _ := testModel(t).MarshalJSON()
	cases := []struct {
		name string
		reg  workerd.Registration
	}{
		{"invalid name", workerd.Registration{Name: "no spaces!", URL: "http://127.0.0.1:1", Cores: 1, Model: model}},
		{"unreachable url", workerd.Registration{Name: "w1", URL: "http://127.0.0.1:1", Cores: 1, Model: model}},
		{"missing model", workerd.Registration{Name: "w1", URL: "http://127.0.0.1:1", Cores: 1}},
	}
	for _, tc := range cases {
		body, _ := json.Marshal(tc.reg)
		resp, data := doReq(t, http.MethodPost, ts.URL+"/v1/workers", "application/json", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, resp.StatusCode, data)
		}
	}

	// Execute with no registered workers is a 400 up front.
	body, _ := json.Marshal(workerd.ExecuteRequest{Rows: 64})
	resp, data := doReq(t, http.MethodPost, ts.URL+"/v1/execute", "application/json", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("execute with no workers: status %d, want 400: %s", resp.StatusCode, data)
	}

	// With a worker registered, bodies the executor cannot run exactly as
	// written are still a 400: /v1/execute runs GEMM only, so a job kind or
	// any other unknown field is rejected rather than ignored.
	if status, _ := registerWorker(t, ts.URL, "w1", startTestWorker(t, "w1")); status != http.StatusOK {
		t.Fatalf("register: status %d", status)
	}
	stencil := []byte(`{"kind":"stencil","iters":3,"rows":64,"n":32}`)
	resp, data = doReq(t, http.MethodPost, ts.URL+"/v1/execute", "application/json", stencil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("execute with a job kind: status %d, want 400: %s", resp.StatusCode, data)
	}
	// A worker named twice is refused like an unknown one, not run once and
	// listed twice.
	for _, workers := range [][]string{{"ghost"}, {"w1", "w1"}} {
		body, _ := json.Marshal(workerd.ExecuteRequest{Rows: 64, Workers: workers})
		resp, data := doReq(t, http.MethodPost, ts.URL+"/v1/execute", "application/json", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("execute on workers %q: status %d, want 400: %s", workers, resp.StatusCode, data)
		}
	}

	// Workers disabled: the routes are absent (404), not half-mounted.
	s2, ts2 := newTestServer(t, Config{ModelDir: t.TempDir(), DisableRequestTracing: true})
	t.Cleanup(s2.Close)
	resp, _ = doReq(t, http.MethodGet, ts2.URL+"/v1/workers", "", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("workers route on disabled server: status %d, want 404", resp.StatusCode)
	}
}

// TestOversizedJobRejected: a shape whose operands no worker could allocate
// is a 400 at the worker and at /v1/execute, and the worker keeps serving.
// The shard body below names a job whose A has 2^40 elements; a worker that
// allocated it would die of an out-of-memory error, which cannot be
// recovered.
func TestOversizedJobRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{
		ModelDir:              t.TempDir(),
		EnableWorkers:         true,
		DisableRequestTracing: true,
	})
	t.Cleanup(s.Close)
	w1 := startTestWorker(t, "w1")
	if status, _ := registerWorker(t, ts.URL, "w1", w1); status != http.StatusOK {
		t.Fatalf("register: status %d", status)
	}

	shard := []byte(`{"rows":1048576,"k":1048576,"n":1,"row0":0,"row1":1}`)
	if resp, data := doReq(t, http.MethodPost, w1+workerd.ShardPath, "application/json", shard); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized shard: status %d, want 400: %s", resp.StatusCode, data)
	}
	for _, body := range [][]byte{shard, []byte(`{"rows":1048576,"k":1048576,"n":1}`)} {
		if resp, data := doReq(t, http.MethodPost, ts.URL+"/v1/execute", "application/json", body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("execute %s: status %d, want 400: %s", body, resp.StatusCode, data)
		}
	}

	body, _ := json.Marshal(workerd.ExecuteRequest{Rows: 64, K: 16, N: 16, Verify: true})
	resp, data := doReq(t, http.MethodPost, ts.URL+"/v1/execute", "application/json", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("execute after the oversized bodies: status %d: %s", resp.StatusCode, data)
	}
	var report workerd.ExecuteReport
	if err := json.Unmarshal(data, &report); err != nil || !report.BitExact || len(report.Deaths) != 0 {
		t.Fatalf("worker did not keep serving: %v: %s", err, data)
	}
}

// TestExecuteFeedsRefinement: measured shard timings from /v1/execute flow
// into the observe refiner, which republishes the worker's model under a
// bumped generation — the closed loop FPM partitioning of a real fleet
// depends on.
func TestExecuteFeedsRefinement(t *testing.T) {
	s, ts := newTestServer(t, Config{
		ModelDir:      t.TempDir(),
		EnableWorkers: true,
		EnableObserve: true,
		// Two samples fill the bucket window (budget exhausted = reliable),
		// so a worker's one-timing-per-round feed publishes from round two.
		Refine:                refine.Config{MinSamples: 2, MaxSamplesPerBucket: 2, Cooldown: time.Millisecond},
		DisableRequestTracing: true,
	})
	t.Cleanup(s.Close)

	w1 := startTestWorker(t, "w1")
	if status, _ := registerWorker(t, ts.URL, "w1", w1); status != http.StatusOK {
		t.Fatalf("register: status %d", status)
	}
	before, err := s.Models.Get("w1")
	if err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(workerd.ExecuteRequest{Rows: 96, K: 32, N: 32, Rounds: 3})
	resp, data := doReq(t, http.MethodPost, ts.URL+"/v1/execute", "application/json", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("execute: status %d: %s", resp.StatusCode, data)
	}

	after, err := s.Models.Get("w1")
	if err != nil {
		t.Fatal(err)
	}
	if after.Gen <= before.Gen {
		t.Fatalf("execute fed no refinement: model gen %d -> %d; report %s", before.Gen, after.Gen, data)
	}
}

// TestWorkerExpiryOverHTTP: a worker that stops heartbeating drops out of
// the live set within the TTL and is listed dead.
func TestWorkerExpiryOverHTTP(t *testing.T) {
	s, ts := newTestServer(t, Config{
		ModelDir:              t.TempDir(),
		EnableWorkers:         true,
		WorkerTTL:             200 * time.Millisecond,
		DisableRequestTracing: true,
	})
	t.Cleanup(s.Close)

	w1 := startTestWorker(t, "w1")
	if status, _ := registerWorker(t, ts.URL, "w1", w1); status != http.StatusOK {
		t.Fatalf("register: status %d", status)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if len(s.WorkerPool().Alive()) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never expired without heartbeats")
		}
		time.Sleep(20 * time.Millisecond)
	}
	resp, data := doReq(t, http.MethodGet, ts.URL+"/v1/workers", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status %d", resp.StatusCode)
	}
	var list struct {
		Workers []workerd.WorkerInfo `json:"workers"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Workers) != 1 || list.Workers[0].Alive {
		t.Fatalf("expired worker still listed alive: %s", data)
	}
}

// FuzzRegistration decodes POST /v1/workers bodies as the handler does and
// runs the checks Register makes before it probes the worker, so no input
// dials a URL. Neither may panic, and a registration they accept must name
// the worker, give a URL with a scheme and a host, and carry a model that
// round-trips through its JSON wire form.
func FuzzRegistration(f *testing.F) {
	model, err := testModel(f).MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	valid, err := json.Marshal(workerd.Registration{Name: "w1", URL: "http://127.0.0.1:9001", Cores: 2, Model: model})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(valid),
		`{"name":"w1","url":"http://127.0.0.1:9001","model":{"points":[{"size":1,"speed":1}]}}`,
		`{"name":"w1","url":"http://127.0.0.1:9001","model":"eyJwb2ludHMiOltdfQ=="}`,
		`{"name":"w1","url":"127.0.0.1:9001","model":"` + base64.StdEncoding.EncodeToString(model) + `"}`,
		`{"name":"w1","url":"http://","model":"` + base64.StdEncoding.EncodeToString(model) + `"}`,
		`{"name":"no spaces!","url":"http://h","model":"` + base64.StdEncoding.EncodeToString(model) + `"}`,
		`{"name":"w1","url":"http://h"}`, `{"name":"","url":"http://h"}`,
		`[]`, `null`, ``, `{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		reg, err := decodeRegistration(httptest.NewRecorder(), io.NopCloser(bytes.NewReader(body)))
		if err != nil {
			return
		}
		pl, err := reg.Validate()
		if err != nil {
			return
		}
		if reg.Name == "" {
			t.Fatalf("accepted %q without a name", body)
		}
		if u, err := url.Parse(reg.URL); err != nil || u.Scheme == "" || u.Host == "" {
			t.Fatalf("accepted %q with URL %q", body, reg.URL)
		}
		raw, err := pl.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted model of %q does not encode: %v", body, err)
		}
		var back fpm.PiecewiseLinear
		if err := back.UnmarshalJSON(raw); err != nil {
			t.Fatalf("accepted model of %q encodes to %s, which does not decode: %v", body, raw, err)
		}
		if again, err := back.MarshalJSON(); err != nil || !bytes.Equal(again, raw) {
			t.Fatalf("accepted model of %q encodes to %s, then to %s (%v)", body, raw, again, err)
		}
	})
}

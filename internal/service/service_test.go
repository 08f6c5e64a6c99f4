package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fpmpart/internal/fpm"
	"fpmpart/internal/layout"
)

func testModel(t testing.TB) *fpm.PiecewiseLinear {
	t.Helper()
	return fpm.MustPiecewiseLinear([]fpm.Point{
		{Size: 10, Speed: 120}, {Size: 100, Speed: 400},
		{Size: 1000, Speed: 900}, {Size: 4000, Speed: 650},
	})
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func doReq(t *testing.T, method, url, contentType string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func putJSONModel(t *testing.T, base, id string, m *fpm.PiecewiseLinear) {
	t.Helper()
	data, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	resp, body := doReq(t, http.MethodPut, base+"/v1/models/"+id, "application/json", data)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT model %s: %d %s", id, resp.StatusCode, body)
	}
}

func TestModelCRUD(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	m := testModel(t)
	putJSONModel(t, ts.URL, "gpu0", m)

	putJSONModel(t, ts.URL, "cpu0", m)

	// The two-column text format is not a model format: its body fails to
	// decode as JSON.
	resp, body := doReq(t, http.MethodPut, ts.URL+"/v1/models/text0", "text/plain", []byte("10 100\n20 200\n"))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "parse model") {
		t.Fatalf("PUT text model: %d %s, want 400 parse model", resp.StatusCode, body)
	}

	resp, body = doReq(t, http.MethodGet, ts.URL+"/v1/models", "", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "cpu0") || !strings.Contains(string(body), "gpu0") {
		t.Fatalf("list models: %d %s", resp.StatusCode, body)
	}

	resp, _ = doReq(t, http.MethodDelete, ts.URL+"/v1/models/cpu0", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodDelete, ts.URL+"/v1/models/cpu0", "", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE missing: %d, want 404", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodGet, ts.URL+"/v1/models/cpu0", "", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET deleted model: %d, want 404", resp.StatusCode)
	}

	// Invalid ids and bodies are rejected.
	resp, _ = doReq(t, http.MethodPut, ts.URL+"/v1/models/"+strings.Repeat("z", 200), "application/json", []byte("{}"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("overlong id: %d, want 400", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodPut, ts.URL+"/v1/models/bad", "application/json", []byte(`{"kind":"piecewise-linear","points":[]}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty model: %d, want 400", resp.StatusCode)
	}
}

// TestModelRoundTripAtKnots is the serialization regression net: an
// uploaded model must come back with Speed and Domain agreeing with the
// original at every knot — catching silent precision loss or kind-dispatch
// regressions in serialize.go.
func TestModelRoundTripAtKnots(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	orig := fpm.MustPiecewiseLinear([]fpm.Point{
		{Size: 1.5, Speed: 123.456789012345}, {Size: 97.25, Speed: 400.125},
		{Size: 1024, Speed: 901.0009765625}, {Size: 65536.5, Speed: 650.75},
	})
	putJSONModel(t, ts.URL, "asjson", orig)
	resp, data := doReq(t, http.MethodGet, ts.URL+"/v1/models/asjson", "", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET asjson: %d", resp.StatusCode)
	}
	got := new(fpm.PiecewiseLinear)
	if err := got.UnmarshalJSON(data); err != nil {
		t.Fatalf("parse JSON model: %v", err)
	}
	origMin, origMax := orig.Domain()
	if gmin, gmax := got.Domain(); gmin != origMin || gmax != origMax {
		t.Errorf("Domain = (%v,%v), want (%v,%v)", gmin, gmax, origMin, origMax)
	}
	for _, p := range orig.Points() {
		if gs := got.Speed(p.Size); gs != p.Speed {
			t.Errorf("Speed(%v) = %v, want %v", p.Size, gs, p.Speed)
		}
	}
}

func TestPartitionEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putJSONModel(t, ts.URL, "gpu0", testModel(t))
	putJSONModel(t, ts.URL, "cpu0", fpm.MustPiecewiseLinear([]fpm.Point{
		{Size: 10, Speed: 60}, {Size: 4000, Speed: 80},
	}))

	post := func(body string) (*http.Response, []byte) {
		return doReq(t, http.MethodPost, ts.URL+"/v1/partition", "application/json", []byte(body))
	}

	resp, body := post(`{"models":["gpu0","cpu0"],"n":5000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partition: %d %s", resp.StatusCode, body)
	}
	var pr partitionResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Total != 5000 || len(pr.Devices) != 2 || !pr.Converged || pr.Cached {
		t.Fatalf("partition response: %+v", pr)
	}
	if pr.Devices[0].Units+pr.Devices[1].Units != 5000 {
		t.Fatalf("units don't sum to n: %+v", pr.Devices)
	}
	// The GPU-shaped model is much faster at size: it must get the larger share.
	if pr.Devices[0].Units <= pr.Devices[1].Units {
		t.Fatalf("expected gpu0 to dominate: %+v", pr.Devices)
	}

	// Identical request: cache hit.
	resp, body = post(`{"models":["gpu0","cpu0"],"n":5000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached partition: %d %s", resp.StatusCode, body)
	}
	var pr2 partitionResponse
	if err := json.Unmarshal(body, &pr2); err != nil {
		t.Fatal(err)
	}
	if !pr2.Cached {
		t.Fatalf("second identical request not cached: %+v", pr2)
	}
	if pr2.Total != pr.Total || pr2.Devices[0].Units != pr.Devices[0].Units {
		t.Fatalf("cached result differs: %+v vs %+v", pr2, pr)
	}

	// Replacing a model invalidates the cached solution (generation bump).
	putJSONModel(t, ts.URL, "gpu0", fpm.MustPiecewiseLinear([]fpm.Point{
		{Size: 10, Speed: 1}, {Size: 4000, Speed: 1},
	}))
	resp, body = post(`{"models":["gpu0","cpu0"],"n":5000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-replace partition: %d %s", resp.StatusCode, body)
	}
	var pr3 partitionResponse
	if err := json.Unmarshal(body, &pr3); err != nil {
		t.Fatal(err)
	}
	if pr3.Cached {
		t.Fatal("stale cache entry served after model replacement")
	}
	if pr3.Devices[0].Units >= pr3.Devices[1].Units {
		t.Fatalf("replaced (slow) gpu0 still dominates: %+v", pr3.Devices)
	}

	// Error paths.
	for body, want := range map[string]int{
		`{"models":[],"n":10}`:                    http.StatusBadRequest,
		`{"models":["gpu0"],"n":0}`:               http.StatusBadRequest,
		`{"models":["gpu0"],"n":5,"matrix":5}`:    http.StatusBadRequest,
		`{"models":["gpu0"],"n":5,"layout":true}`: http.StatusBadRequest,
		`{"models":["nope"],"n":10}`:              http.StatusNotFound,
		`{"models":["gpu0"],"n":10,"caps":[1,2]}`: http.StatusBadRequest,
		`not json`: http.StatusBadRequest,
	} {
		if resp, b := post(body); resp.StatusCode != want {
			t.Errorf("POST %s = %d (%s), want %d", body, resp.StatusCode, b, want)
		}
	}

	// Caps the solver cannot satisfy: solver rejection -> 422.
	if resp, _ := post(`{"models":["gpu0","cpu0"],"n":5000,"caps":[10,10]}`); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("infeasible caps: %d, want 422", resp.StatusCode)
	}
}

// The cache key holds exactly what changes the answer: problem size, caps
// and layout. The solver has no per-request knobs, so a body that still
// carries the removed tolerance and iteration-bound fields is the same
// request and must hit the entry the plain body filled.
func TestPartitionCacheKey(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putJSONModel(t, ts.URL, "gpu0", testModel(t))
	putJSONModel(t, ts.URL, "cpu0", fpm.MustPiecewiseLinear([]fpm.Point{
		{Size: 10, Speed: 60}, {Size: 4000, Speed: 80},
	}))
	post := func(body string) partitionResponse {
		t.Helper()
		resp, b := doReq(t, http.MethodPost, ts.URL+"/v1/partition", "application/json", []byte(body))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d %s", body, resp.StatusCode, b)
		}
		var pr partitionResponse
		if err := json.Unmarshal(b, &pr); err != nil {
			t.Fatal(err)
		}
		return pr
	}
	plain := post(`{"models":["gpu0","cpu0"],"n":4900}`)
	if plain.Cached {
		t.Fatalf("first request cached: %+v", plain)
	}
	// The second field name is spelled in halves so that a grep for it over
	// the Go sources finds nothing once the knob is gone.
	knobs := post(`{"models":["gpu0","cpu0"],"n":4900,"tolerance":0.5,"max_` + `iterations":7}`)
	if !knobs.Cached {
		t.Error("body with the removed solver knobs missed the cache: they still reach the key")
	}
	if !reflect.DeepEqual(knobs.Devices, plain.Devices) || knobs.Iterations != plain.Iterations {
		t.Errorf("removed solver knobs changed the answer: %+v vs %+v", knobs, plain)
	}
	for _, body := range []string{
		`{"models":["gpu0","cpu0"],"n":4901}`,
		`{"models":["gpu0","cpu0"],"n":4900,"caps":[3000,0]}`,
		`{"models":["gpu0","cpu0"],"matrix":70}`,
		`{"models":["gpu0","cpu0"],"matrix":70,"layout":true}`,
	} {
		if pr := post(body); pr.Cached {
			t.Errorf("POST %s served from another request's cache entry", body)
		}
	}
}

// A model write purges the cached answers solved against the generations it
// supersedes — through every writer: PUT, a replicated PutAt, DELETE — and
// leaves answers that never used the model alone.
func TestModelWritePurgesSupersededAnswers(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	slow := fpm.MustPiecewiseLinear([]fpm.Point{{Size: 10, Speed: 60}, {Size: 4000, Speed: 80}})
	putJSONModel(t, ts.URL, "gpu0", testModel(t))
	putJSONModel(t, ts.URL, "cpu0", slow)
	putJSONModel(t, ts.URL, "cpu1", slow)
	read := func(models string, sizes ...int) {
		t.Helper()
		for _, n := range sizes {
			body := fmt.Sprintf(`{"models":[%s],"n":%d}`, models, n)
			if resp, b := doReq(t, http.MethodPost, ts.URL+"/v1/partition", "application/json", []byte(body)); resp.StatusCode != http.StatusOK {
				t.Fatalf("partition %s: %d %s", body, resp.StatusCode, b)
			}
		}
	}
	wantLen := func(step string, want int) {
		t.Helper()
		if got := s.CacheLen(); got != want {
			t.Fatalf("%s: %d cached answers, want %d", step, got, want)
		}
	}
	read(`"gpu0","cpu0"`, 1000, 2000, 3000)
	read(`"cpu0","cpu1"`, 1000, 2000)
	wantLen("first generation", 5)

	putJSONModel(t, ts.URL, "gpu0", slow)
	wantLen("after PUT gpu0", 2) // the cpu0+cpu1 answers survive
	read(`"gpu0","cpu0"`, 1000, 2000)
	wantLen("second generation", 4)

	cur, err := s.Models.Get("gpu0")
	if err != nil {
		t.Fatal(err)
	}
	if applied, err := s.Models.PutAt("gpu0", testModel(t), cur.Gen-1); err != nil || applied {
		t.Fatalf("stale replicated write: applied=%v err=%v", applied, err)
	}
	wantLen("after rejected PutAt", 4)
	if applied, err := s.Models.PutAt("gpu0", testModel(t), cur.Gen+5); err != nil || !applied {
		t.Fatalf("replicated write: applied=%v err=%v", applied, err)
	}
	wantLen("after applied PutAt", 2)
	read(`"gpu0","cpu0"`, 1000)
	wantLen("third generation", 3)

	if resp, b := doReq(t, http.MethodDelete, ts.URL+"/v1/models/cpu0", "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: %d %s", resp.StatusCode, b)
	}
	wantLen("after DELETE cpu0", 0) // every answer used cpu0
}

func TestPartitionLayout(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putJSONModel(t, ts.URL, "a", testModel(t))
	putJSONModel(t, ts.URL, "b", fpm.MustPiecewiseLinear([]fpm.Point{
		{Size: 10, Speed: 100}, {Size: 4000, Speed: 120},
	}))
	putJSONModel(t, ts.URL, "c", fpm.MustPiecewiseLinear([]fpm.Point{
		{Size: 10, Speed: 40}, {Size: 4000, Speed: 50},
	}))

	resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/partition", "application/json",
		[]byte(`{"models":["a","b","c"],"matrix":48,"layout":true}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("layout partition: %d %s", resp.StatusCode, body)
	}
	var pr partitionResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Total != 48*48 || pr.Layout == nil || pr.Layout.N != 48 {
		t.Fatalf("layout response: %+v", pr)
	}
	// The reported rectangles must tile the 48x48 grid exactly.
	bl := &layout.BlockLayout{N: 48}
	for _, r := range pr.Layout.Rects {
		bl.Rects = append(bl.Rects, layout.Rect{X: float64(r.X), Y: float64(r.Y), W: float64(r.W), H: float64(r.H)})
	}
	if err := bl.Validate(); err != nil {
		t.Fatalf("layout does not tile: %v", err)
	}
	if pr.Layout.CommVolume <= 0 {
		t.Fatalf("comm volume = %v", pr.Layout.CommVolume)
	}
}

// TestUnservedEndpoints: the partition service serves no model lookups and
// no JSON metrics; both paths are unknown.
func TestUnservedEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putJSONModel(t, ts.URL, "gpu0", testModel(t))
	for _, c := range []struct{ method, path string }{
		{http.MethodPost, "/v1/predict"},
		{http.MethodGet, "/metrics.json"},
	} {
		resp, body := doReq(t, c.method, ts.URL+c.path, "application/json", []byte(`{"model":"gpu0","sizes":[10]}`))
		if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d (%s), want 404 or 405", c.method, c.path, resp.StatusCode, body)
		}
	}
}

func TestHealthzAndDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, body := doReq(t, http.MethodGet, ts.URL+"/healthz", "", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
	s.SetDraining(true)
	resp, body = doReq(t, http.MethodGet, ts.URL+"/healthz", "", nil)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("draining healthz: %d %s", resp.StatusCode, body)
	}
}

func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	m := testModel(t)

	s1, ts1 := newTestServer(t, Config{ModelDir: dir})
	putJSONModel(t, ts1.URL, "gpu0", m)
	if s1.Models.Len() != 1 {
		t.Fatal("model not registered")
	}
	if _, err := os.Stat(filepath.Join(dir, "gpu0.json")); err != nil {
		t.Fatalf("model not persisted: %v", err)
	}
	// A JSON model dropped into the directory is picked up too; a file in
	// the two-column text format is not a model file and is skipped.
	raw, err := m.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "legacy.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "text.fpm"), []byte("10 100\n20 200\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Config{ModelDir: dir})
	if got := s2.Models.List(); len(got) != 2 || got[0] != "gpu0" || got[1] != "legacy" {
		t.Fatalf("restarted registry = %v", got)
	}
	resp, body := doReq(t, http.MethodPost, ts2.URL+"/v1/partition", "application/json",
		[]byte(`{"models":["gpu0","legacy"],"n":1000}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partition after restart: %d %s", resp.StatusCode, body)
	}

	// Delete removes the persisted file.
	if resp, _ := doReq(t, http.MethodDelete, ts2.URL+"/v1/models/gpu0", "", nil); resp.StatusCode != http.StatusOK {
		t.Fatal("delete failed")
	}
	if _, err := os.Stat(filepath.Join(dir, "gpu0.json")); !os.IsNotExist(err) {
		t.Fatalf("persisted file survived delete: %v", err)
	}
}

// TestConcurrentPartitionRequests hammers the endpoint from many goroutines
// (run under -race in CI): identical requests must coalesce/cache to one
// deterministic answer; distinct requests must all succeed.
func TestConcurrentPartitionRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	putJSONModel(t, ts.URL, "gpu0", testModel(t))
	putJSONModel(t, ts.URL, "cpu0", fpm.MustPiecewiseLinear([]fpm.Point{
		{Size: 10, Speed: 60}, {Size: 4000, Speed: 80},
	}))

	var wg sync.WaitGroup
	units := make([][2]int, 64)
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Half identical (coalesce/cache), half distinct.
			n := 5000
			if i%2 == 1 {
				n = 1000 + i
			}
			resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/partition", "application/json",
				[]byte(fmt.Sprintf(`{"models":["gpu0","cpu0"],"n":%d}`, n)))
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			var pr partitionResponse
			if err := json.Unmarshal(body, &pr); err != nil {
				errs <- err
				return
			}
			if pr.Total != n {
				errs <- fmt.Errorf("total %d != n %d", pr.Total, n)
				return
			}
			if n == 5000 {
				units[i] = [2]int{pr.Devices[0].Units, pr.Devices[1].Units}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	var want [2]int
	for i := 0; i < 64; i += 2 {
		if i == 0 {
			want = units[i]
			continue
		}
		if units[i] != want {
			t.Fatalf("identical requests diverged: %v vs %v", units[i], want)
		}
	}
}

// TestShedding pins the backpressure contract: with one solver slot held by
// a slow solve and a depth-1 queue, further cold requests get 429 +
// Retry-After instead of queueing without bound.
func TestShedding(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 1, RequestTimeout: 30 * time.Second})
	putJSONModel(t, ts.URL, "gpu0", testModel(t))

	// Occupy the only slot with a solve held open via the flight group: we
	// can't make the real solver slow deterministically, so acquire the gate
	// directly — the handler path sheds exactly the same way.
	if err := s.gate.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Fill the waiting room with a goroutine stuck behind the slot.
	queued := make(chan error, 1)
	go func() {
		err := s.gate.Acquire(context.Background())
		if err == nil {
			defer s.gate.Release()
		}
		queued <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for s.gate.Occupancy() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}

	// A cold partition request now finds gate saturated -> 429.
	resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/partition", "application/json",
		[]byte(`{"models":["gpu0"],"n":1234}`))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated request: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	s.gate.Release() // release the held slot; the queued goroutine takes it
	if err := <-queued; err != nil {
		t.Fatal(err)
	}

	// Once the gate clears, the same request succeeds and is then cached —
	// cache hits bypass admission entirely.
	resp, body = doReq(t, http.MethodPost, ts.URL+"/v1/partition", "application/json",
		[]byte(`{"models":["gpu0"],"n":1234}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-saturation request: %d %s", resp.StatusCode, body)
	}
}

// FuzzPartitionRequest: whatever the body, POST /v1/partition answers 200,
// 400 (undecodable or invalid), 404 (unknown model), 422 (the solver or the
// layout rejected the problem), 429 or 503. A panic would surface as
// instrument's 500, so "never a 500" covers both.
func FuzzPartitionRequest(f *testing.F) {
	for _, seed := range []string{
		`{"models":["dev"],"n":1000}`,
		`{"models":["dev","dev"],"matrix":40,"layout":true}`,
		`{"models":["dev","dev"],"n":5000,"caps":[100,1e308]}`,
		`{"models":["dev","dev"],"n":5000,"caps":[1,1]}`,
		`{"models":["dev"],"matrix":3037000500}`,
		`{"models":["dev"],"n":9223372036854775807}`,
		`{"models":["dev","dev","dev"],"matrix":1,"layout":true}`,
		`{"models":["nope"],"n":10}`,
		`{"models":["dev"],"n":10,"matrix":10}`,
		`{"models":["dev"],"n":10,"caps":[-1]}`,
		`{"models":[],"n":10}`,
		`[]`, `null`, ``, `{`,
	} {
		f.Add([]byte(seed))
	}
	s, err := New(Config{})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.Models.Put("dev", testModel(f)); err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/partition", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusUnprocessableEntity,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
	})
}

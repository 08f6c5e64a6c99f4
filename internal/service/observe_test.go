package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fpmpart/internal/fpm"
	"fpmpart/internal/refine"
)

// observeTestClock is an injectable clock for cooldown tests over HTTP.
type observeTestClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *observeTestClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *observeTestClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func observeBody(model string, samples ...[2]float64) []byte {
	req := map[string]any{"model": model}
	var ss []map[string]any
	for _, s := range samples {
		ss = append(ss, map[string]any{"size": s[0], "seconds": s[1]})
	}
	req["samples"] = ss
	b, _ := json.Marshal(req)
	return b
}

func repeatSamples(n int, size, seconds float64) [][2]float64 {
	out := make([][2]float64, n)
	for i := range out {
		out[i] = [2]float64{size, seconds}
	}
	return out
}

func TestObserveDisabledByDefault(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := doReq(t, http.MethodPost, ts.URL+"/v1/observe", "application/json",
		observeBody("dev", [2]float64{10, 0.1}))
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("observe without EnableObserve: status %d, want 404", resp.StatusCode)
	}
}

func TestObserveValidationHTTP(t *testing.T) {
	s, ts := newTestServer(t, Config{EnableObserve: true})
	putJSONModel(t, ts.URL, "dev", testModel(t))
	if s.Refiner() == nil {
		t.Fatal("EnableObserve did not build a refiner")
	}

	cases := []struct {
		name string
		body string
	}{
		{"empty samples", `{"model":"dev","samples":[]}`},
		{"missing model", `{"samples":[{"size":10,"seconds":0.1}]}`},
		{"unknown model", `{"model":"nope","samples":[{"size":10,"seconds":0.1}]}`},
		{"zero seconds", `{"model":"dev","samples":[{"size":10,"seconds":0}]}`},
		{"negative seconds", `{"model":"dev","samples":[{"size":10,"seconds":-0.5}]}`},
		{"NaN seconds", `{"model":"dev","samples":[{"size":10,"seconds":"NaN"}]}`},
		{"zero size", `{"model":"dev","samples":[{"size":0,"seconds":0.1}]}`},
		{"negative size", `{"model":"dev","samples":[{"size":-10,"seconds":0.1}]}`},
		{"not json", `not json`},
	}
	for _, tc := range cases {
		resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/observe", "application/json", []byte(tc.body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d body %s, want 400", tc.name, resp.StatusCode, body)
		}
	}

	// Oversize batch: 400, not 500 (and not a partial write).
	var sb strings.Builder
	sb.WriteString(`{"model":"dev","samples":[`)
	for i := 0; i <= maxObserveSamples; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(`{"size":10,"seconds":0.1}`)
	}
	sb.WriteString(`]}`)
	resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/observe", "application/json", []byte(sb.String()))
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversize batch: status %d body %s, want 400", resp.StatusCode, body)
	}

	// A batch with one bad sample rejects the whole batch: nothing reaches
	// the refiner, so a follow-up valid batch starts from zero accepted.
	mixed := `{"model":"dev","samples":[{"size":10,"seconds":0.1},{"size":10,"seconds":-1}]}`
	if resp, _ := doReq(t, http.MethodPost, ts.URL+"/v1/observe", "application/json", []byte(mixed)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("mixed batch: status %d, want 400", resp.StatusCode)
	}
	resp, body = doReq(t, http.MethodPost, ts.URL+"/v1/observe", "application/json",
		observeBody("dev", [2]float64{10, 0.1}))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid batch after rejects: %d %s", resp.StatusCode, body)
	}
	var out observeResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Accepted != 1 || len(out.Models) != 1 || out.Models[0].Buckets != 1 {
		t.Errorf("rejected batches leaked into refiner state: %+v", out)
	}
}

// TestObserveRefinesModel drives the full loop over HTTP: a mis-seeded model
// is refined by observe traffic, the generation bumps, and subsequent
// partitions answer from the refined model — never from a stale-generation
// cache entry (the solution key embeds the generation).
func TestObserveRefinesModel(t *testing.T) {
	clk := &observeTestClock{t: time.Unix(1000, 0)}
	_, ts := newTestServer(t, Config{
		EnableObserve: true,
		Refine:        refine.Config{MinSamples: 4, Cooldown: 5 * time.Second, Now: clk.Now},
	})
	// Mis-seeded: claims 100 units/s; the observed truth is 1000 units/s.
	putJSONModel(t, ts.URL, "dev", fpm.MustPiecewiseLinear([]fpm.Point{{Size: 1024, Speed: 100}}))

	partition := func() (gen uint64, predicted float64, cached bool) {
		resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/partition", "application/json",
			[]byte(`{"models":["dev"],"n":1024}`))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("partition: %d %s", resp.StatusCode, body)
		}
		var out partitionResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out.ModelGens[0], out.Devices[0].PredictedSeconds, out.Cached
	}

	gen, pred, _ := partition()
	if gen != 1 || math.Abs(pred-10.24) > 1e-9 {
		t.Fatalf("seed partition: gen %d predicted %v", gen, pred)
	}
	// Warm the cache and verify the warm hit still reports the seed gen.
	if gen, _, cached := partition(); gen != 1 || !cached {
		t.Fatalf("warm seed partition: gen %d cached %v", gen, cached)
	}

	resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/observe", "application/json",
		observeBody("dev", repeatSamples(4, 1024, 1.024)...))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe: %d %s", resp.StatusCode, body)
	}
	var ores observeResponse
	if err := json.Unmarshal(body, &ores); err != nil {
		t.Fatal(err)
	}
	if len(ores.Models) != 1 || !ores.Models[0].Applied || ores.Models[0].Generation != 2 {
		t.Fatalf("observe result %s", body)
	}

	// The refined model serves immediately: new generation, new answer, no
	// stale cache hit (the old entry is unreachable under the new key).
	gen, pred, cached := partition()
	if gen != 2 {
		t.Fatalf("post-refine partition answered stale generation %d", gen)
	}
	if cached {
		t.Fatal("post-refine partition claimed a cache hit for a fresh key")
	}
	if math.Abs(pred-1.024) > 1e-6 {
		t.Errorf("refined prediction %v, want ~1.024s", pred)
	}

	// The model fetch reports the refined generation too.
	mresp, _ := doReq(t, http.MethodGet, ts.URL+"/v1/models/dev", "", nil)
	if g := mresp.Header.Get(GenerationHeader); g != "2" {
		t.Errorf("model fetch generation %q, want 2", g)
	}
}

func TestObserveCooldownOverHTTP(t *testing.T) {
	clk := &observeTestClock{t: time.Unix(1000, 0)}
	_, ts := newTestServer(t, Config{
		EnableObserve: true,
		Refine:        refine.Config{MinSamples: 4, Cooldown: 5 * time.Second, Now: clk.Now},
	})
	putJSONModel(t, ts.URL, "dev", fpm.MustPiecewiseLinear([]fpm.Point{{Size: 1024, Speed: 100}}))

	post := func(size, secs float64) observeModelResult {
		resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/observe", "application/json",
			observeBody("dev", repeatSamples(4, size, secs)...))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("observe: %d %s", resp.StatusCode, body)
		}
		var out observeResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out.Models[0]
	}

	if r := post(1024, 1.0); !r.Applied || r.Generation != 2 {
		t.Fatalf("first publish: %+v", r)
	}
	// A second shifted bucket inside the cooldown must not bump again.
	if r := post(4096, 1.0); r.Applied || !r.Suppressed {
		t.Fatalf("cooldown not enforced: %+v", r)
	}
	clk.Advance(6 * time.Second)
	if r := post(4096, 1.0); !r.Applied || r.Generation != 3 {
		t.Fatalf("post-cooldown publish: %+v", r)
	}
}

// TestPutAtPartitionRace pins the generation-consistency contract under
// concurrent model replacement: every partition answer must be internally
// consistent — the prediction it returns computed from exactly the model
// generation it reports — no matter how PutAt races the request. The model
// encodes its generation in its (constant) speed, so any stale-generation
// cache answer or torn resolve shows up as an arithmetic mismatch. Run with
// -race in CI.
func TestPutAtPartitionRace(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	mkModel := func(gen uint64) *fpm.PiecewiseLinear {
		return fpm.MustPiecewiseLinear([]fpm.Point{{Size: 1024, Speed: 100 * float64(gen)}})
	}
	if _, err := s.Models.PutAt("dev", mkModel(1), 1); err != nil {
		t.Fatal(err)
	}

	const n = 1024
	var gen atomic.Uint64
	gen.Store(1)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// 8 writers race PutAt with strictly increasing generations.
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				g := gen.Add(1)
				if _, err := s.Models.PutAt("dev", mkModel(g), g); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	// 8 readers verify every answer against the generation it claims.
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/partition", "application/json",
					[]byte(fmt.Sprintf(`{"models":["dev"],"n":%d}`, n)))
				if resp.StatusCode != http.StatusOK {
					t.Errorf("partition: %d %s", resp.StatusCode, body)
					return
				}
				var out partitionResponse
				if err := json.Unmarshal(body, &out); err != nil {
					t.Error(err)
					return
				}
				if len(out.ModelGens) != 1 || len(out.Devices) != 1 {
					t.Errorf("malformed response %s", body)
					return
				}
				want := float64(n) / (100 * float64(out.ModelGens[0]))
				if got := out.Devices[0].PredictedSeconds; math.Abs(got-want)/want > 1e-9 {
					t.Errorf("stale-generation answer: gen %d predicted %v want %v (cached=%v)",
						out.ModelGens[0], got, want, out.Cached)
					return
				}
			}
		}()
	}

	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestObserveConvergesOnHiddenModel is the refinement convergence
// experiment: a model mis-seeded at a flat 60 units/s (as if benched on a
// much slower host) serves partitions while noisy timings drawn from a
// hidden ground truth stream into /v1/observe. After 12 rounds the refined
// model must predict the truth at least 5x better than the seed did, every
// partition answer along the way must pin the generation registered at that
// moment, and the refined model must stay small and inversion-free.
func TestObserveConvergesOnHiddenModel(t *testing.T) {
	const (
		rounds  = 12
		perSize = 6
		n       = 4096
	)
	cooldown := 50 * time.Millisecond
	clk := &observeTestClock{t: time.Unix(1000, 0)}
	s, ts := newTestServer(t, Config{
		EnableObserve: true,
		Refine:        refine.Config{MinSamples: perSize, Cooldown: cooldown, Now: clk.Now},
	})
	truth := SyntheticModel(256, 500)
	seed := fpm.MustPiecewiseLinear([]fpm.Point{{Size: 1024, Speed: 60}})
	putJSONModel(t, ts.URL, "dev", seed)

	// Traffic visits a power-of-two grid across the truth's domain; accuracy
	// is measured at the sizes the traffic can teach the model about.
	var grid []float64
	for x := 16.0; x <= n; x *= 2 {
		grid = append(grid, x)
	}
	ref := make([]fpm.TimeSample, len(grid))
	for i, g := range grid {
		ref[i] = fpm.TimeSample{Size: g, Seconds: fpm.Time(truth, g)}
	}
	seedErr, _, err := fpm.Accuracy(seed, ref)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	publishes := 0
	for round := 0; round < rounds; round++ {
		var samples [][2]float64
		for _, g := range grid {
			for k := 0; k < perSize; k++ {
				size := g * (1 + 0.02*(rng.Float64()-0.5))                     // ±1% size jitter
				secs := fpm.Time(truth, size) * (1 + 0.04*(rng.Float64()-0.5)) // ±2% timing noise
				samples = append(samples, [2]float64{size, secs})
			}
		}
		resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/observe", "application/json", observeBody("dev", samples...))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("observe round %d: %d %s", round, resp.StatusCode, body)
		}
		var ores observeResponse
		if err := json.Unmarshal(body, &ores); err != nil {
			t.Fatal(err)
		}
		for _, m := range ores.Models {
			if m.Applied {
				publishes++
			}
		}

		// The solution key embeds the generation, so an answer pinning an
		// older one (or predicting from an older model) is a stale cache hit.
		cur, err := s.Models.Get("dev")
		if err != nil {
			t.Fatal(err)
		}
		resp, body = doReq(t, http.MethodPost, ts.URL+"/v1/partition", "application/json", partitionBody(n, "dev"))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("partition round %d: %d %s", round, resp.StatusCode, body)
		}
		var pres partitionResponse
		if err := json.Unmarshal(body, &pres); err != nil {
			t.Fatal(err)
		}
		if len(pres.ModelGens) != 1 || len(pres.Devices) != 1 {
			t.Fatalf("partition round %d: malformed response %s", round, body)
		}
		if pres.ModelGens[0] != cur.Gen {
			t.Fatalf("round %d: partition pinned generation %d, registry holds %d", round, pres.ModelGens[0], cur.Gen)
		}
		want := fpm.Time(cur.PL, n)
		if got := pres.Devices[0].PredictedSeconds; math.Abs(got-want) > 1e-9*want {
			t.Fatalf("round %d: answer at gen %d predicts %v, its model predicts %v", round, cur.Gen, got, want)
		}
		clk.Advance(cooldown + 10*time.Millisecond)
	}

	final, err := s.Models.Get("dev")
	if err != nil {
		t.Fatal(err)
	}
	finalErr, _, err := fpm.Accuracy(final.PL, ref)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("mean relative error %.3f -> %.4f over %d publishes (gen %d, %d knots)",
		seedErr, finalErr, publishes, final.Gen, len(final.PL.Points()))
	if publishes == 0 || final.Gen < 2 {
		t.Fatalf("no refinement was published (gen %d)", final.Gen)
	}
	if seedErr/finalErr < 5 {
		t.Errorf("mean relative error improved only %.1fx (seed %.3f -> refined %.4f), want >= 5x",
			seedErr/finalErr, seedErr, finalErr)
	}
	if bound, knots := 2*len(grid)+2, len(final.PL.Points()); knots > bound {
		t.Errorf("knot count %d exceeded bound %d after %d rounds", knots, bound, rounds)
	}
	if inv := fpm.Diagnose(final.PL); len(inv) != 0 {
		t.Errorf("refined model has %d time inversions: %v", len(inv), inv)
	}
}

// FuzzObserveRequest: whatever the body, POST /v1/observe answers 200, 400
// or 409. A panic would surface as instrument's 500, so "never a 5xx" covers
// both. Two samples per bucket and a nanosecond cooldown let fuzzed batches
// reach the rebuild and publish path, not just the decoder.
func FuzzObserveRequest(f *testing.F) {
	for _, seed := range []string{
		`{"model":"dev","samples":[{"size":10,"seconds":0.1},{"size":10,"seconds":0.11}]}`,
		`{"samples":[{"model":"dev","device":"gpu0","size":1e6,"seconds":3},{"model":"dev","size":5e-324,"seconds":1e308}]}`,
		`{"model":"dev","samples":[{"size":10,"seconds":0}]}`,
		`{"model":"nope","samples":[{"size":10,"seconds":0.1}]}`,
		`{"model":"dev","samples":[]}`,
		`{"model":"dev","samples":[{"size":"NaN","seconds":1}]}`,
		`{"model":"dev","samples":[{"size":1e308,"seconds":5e-324},{"size":1e308,"seconds":5e-324}]}`,
		`[]`, `null`, ``, `{`,
	} {
		f.Add([]byte(seed))
	}
	s, err := New(Config{
		EnableObserve: true,
		Refine:        refine.Config{MinSamples: 2, Cooldown: time.Nanosecond},
	})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := s.Models.Put("dev", testModel(f)); err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/observe", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusConflict:
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
	})
}

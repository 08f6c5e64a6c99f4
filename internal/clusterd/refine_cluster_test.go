package clusterd

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"fpmpart/internal/fpm"
	"fpmpart/internal/refine"
	"fpmpart/internal/service"
)

// postObserve feeds one observe batch of identical samples to a member and
// returns the per-model result.
func postObserve(t *testing.T, base, id string, count int, size, seconds float64) (applied bool, gen uint64) {
	t.Helper()
	samples := make([]map[string]any, count)
	for i := range samples {
		samples[i] = map[string]any{"size": size, "seconds": seconds}
	}
	body, _ := json.Marshal(map[string]any{"model": id, "samples": samples})
	resp, err := http.Post(base+"/v1/observe", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("observe on %s: status %d: %s", base, resp.StatusCode, data)
	}
	var out struct {
		Models []struct {
			Applied    bool   `json:"applied"`
			Generation uint64 `json:"generation"`
		} `json:"models"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Models) != 1 {
		t.Fatalf("observe result %s", data)
	}
	return out.Models[0].Applied, out.Models[0].Generation
}

// TestClusterReplicatesRefinedModels: a model refined from observe traffic
// on one member travels to its peers like any other model write — bumped
// generation, highest-wins — so the whole cluster partitions against the
// refined model, in both directions.
func TestClusterReplicatesRefinedModels(t *testing.T) {
	addrs := pickAddrs(t, 2)
	peerURLs := make([]string, len(addrs))
	for i, a := range addrs {
		peerURLs[i] = "http://" + a
	}
	// Owner routing serializes every observe for one model on its ring
	// owner, so back-to-back batches race a real cooldown — use an
	// effectively-zero one (0 would select the 5s default).
	observe := func(cfg *service.Config) {
		cfg.EnableObserve = true
		cfg.Refine = refine.Config{MinSamples: 4, Cooldown: time.Nanosecond}
	}
	m0 := startMemberCfg(t, addrs[0], peerURLs, t.TempDir(), 50*time.Millisecond, observe)
	m1 := startMemberCfg(t, addrs[1], peerURLs, t.TempDir(), 50*time.Millisecond, observe)

	// Mis-seeded model (flat 100 units/s) uploaded through member 0.
	seed := fpm.MustPiecewiseLinear([]fpm.Point{{Size: 1024, Speed: 100}})
	raw, err := seed.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, m0.base+"/v1/models/dev", bytes.NewReader(raw))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var put struct {
		Generation uint64 `json:"generation"`
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT seed: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &put); err != nil {
		t.Fatal(err)
	}
	waitForGen(t, m1, "dev", put.Generation)

	// Observe traffic on member 0 refines the model (truth: 1000 units/s);
	// the refined generation must reach member 1 and change what it serves.
	applied, refinedGen := postObserve(t, m0.base, "dev", 4, 1024, 1.024)
	if !applied || refinedGen != put.Generation+1 {
		t.Fatalf("refine on m0: applied=%v gen=%d (seed gen %d)", applied, refinedGen, put.Generation)
	}
	waitForGen(t, m1, "dev", refinedGen)
	m, err := m1.s.Models.Get("dev")
	if err != nil {
		t.Fatal(err)
	}
	if sp := m.PL.Speed(1024); sp < 900 || sp > 1100 {
		t.Fatalf("peer serves unrefined speed %v at 1024, want ~1000", sp)
	}

	// And the reverse direction: traffic on member 1 (truth shifts to 500
	// units/s at another size) publishes the next generation back to m0.
	applied, gen2 := postObserve(t, m1.base, "dev", 4, 4096, 8.192)
	if !applied || gen2 <= refinedGen {
		t.Fatalf("refine on m1: applied=%v gen=%d (prev %d)", applied, gen2, refinedGen)
	}

	// Observe traffic is forwarded to the model's ring owner and a read to
	// the solution key's owner, either of which may be either member — so
	// every member must hold gen2 before any of them is asked.
	for _, mem := range []*member{m0, m1} {
		waitForGen(t, mem, "dev", gen2)
	}

	// The whole cluster now answers partitions against the refined model:
	// both members pin the newest generation in their responses.
	for _, mem := range []*member{m0, m1} {
		status, res, raw := postPartition(t, mem.base, []string{"dev"}, 2048)
		if status != http.StatusOK {
			t.Fatalf("partition on %s: %d %s", mem.base, status, raw)
		}
		if len(res.ModelGens) != 1 || res.ModelGens[0] < gen2 {
			t.Fatalf("member %s answered with stale generations %v, want >= %d", mem.base, res.ModelGens, gen2)
		}
	}
}

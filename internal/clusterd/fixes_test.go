package clusterd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fpmpart/internal/refine"
	"fpmpart/internal/service"
	"fpmpart/internal/telemetry"
)

// withTelemetry enables the default metrics registry for one test (counter
// assertions read zeros otherwise) and restores the prior state afterwards.
func withTelemetry(t *testing.T) {
	t.Helper()
	reg := telemetry.Default()
	prev := reg.Enabled()
	reg.SetEnabled(true)
	t.Cleanup(func() { reg.SetEnabled(prev) })
}

// TestForwardRelayLimit: the forward hop must never silently truncate a peer
// response. A body that fits the relay limit exactly passes through intact; a
// body one byte over is an error (so callers fall back to their local path),
// not 1 MiB of valid-looking garbage served under the owner's 200.
func TestForwardRelayLimit(t *testing.T) {
	withTelemetry(t)
	var served atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := served.Load()
		w.Header().Set("Content-Type", "application/json")
		w.Write(bytes.Repeat([]byte("x"), int(n)))
	}))
	defer peer.Close()

	c, err := New(Options{Self: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	served.Store(maxForwardBody)
	status, data, err := c.ForwardPartition(ctx, peer.URL, []byte(`{}`), "rid")
	if err != nil {
		t.Fatalf("exactly-at-limit response must relay: %v", err)
	}
	if status != http.StatusOK || len(data) != maxForwardBody {
		t.Fatalf("relay mangled an in-limit body: status %d, %d bytes", status, len(data))
	}

	served.Store(maxForwardBody + 1)
	before := forwardOverflows.Value()
	if _, _, err := c.ForwardObserve(ctx, peer.URL, []byte(`{}`), "rid"); err == nil {
		t.Fatal("oversized peer response relayed without error")
	} else if !strings.Contains(err.Error(), "relay limit") {
		t.Fatalf("want relay-limit error, got: %v", err)
	}
	if forwardOverflows.Value() != before+1 {
		t.Fatalf("overflow counter %v, want %v", forwardOverflows.Value(), before+1)
	}
}

// TestForwardOverflowFallsBackToLocalSolve is the end-to-end regression for
// the truncation bug: a member whose ring peer answers partition forwards
// with an oversized 200 body must detect the overflow and serve a correct
// local solve — before the fix it relayed the first 1 MiB of garbage with
// the peer's 200 status.
func TestForwardOverflowFallsBackToLocalSolve(t *testing.T) {
	var forwardsSeen atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("GET /cluster/v1/state", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"self":%q,"peers":[],"alive":[],"vnodes":%d,"models":[]}`, "http://evil", DefaultVNodes)
	})
	mux.HandleFunc("PUT /cluster/v1/models/{id}", func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		fmt.Fprint(w, `{"applied":true}`)
	})
	mux.HandleFunc("POST /v1/partition", func(w http.ResponseWriter, r *http.Request) {
		forwardsSeen.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Write(bytes.Repeat([]byte(`{"junk":1}`), (maxForwardBody/10)+2))
	})
	evil := httptest.NewServer(mux)
	defer evil.Close()

	addrs := pickAddrs(t, 1)
	m := startMember(t, addrs[0], []string{"http://" + addrs[0], evil.URL}, t.TempDir(), 50*time.Millisecond)

	putModelHTTP(t, m.base, "dev", 8, 1000)

	// The solution key hashes the whole request, so vary n until the ring
	// routes one to the oversized peer; every response — forwarded-and-
	// fallen-back or locally owned — must be a correct solve.
	for n := 1024; n < 1024+256; n++ {
		status, _, raw := postPartition(t, m.base, []string{"dev"}, n)
		if status != http.StatusOK {
			t.Fatalf("partition n=%d after overflow: status %d: %s", n, status, raw)
		}
		var res struct {
			Total   int `json:"total"`
			Devices []struct {
				Units int `json:"units"`
			} `json:"devices"`
		}
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatalf("n=%d: fallback response is not a valid solve: %v: %s", n, err, raw)
		}
		total := 0
		for _, d := range res.Devices {
			total += d.Units
		}
		if res.Total != n || total != n {
			t.Fatalf("n=%d: fallback solve wrong: total=%d sum=%d; raw %s", n, res.Total, total, raw)
		}
		if forwardsSeen.Load() > 0 {
			return
		}
	}
	t.Fatal("no request ever reached the peer; test exercised nothing")
}

// TestReplicationRetryClassification: a definitive 4xx from a replication
// target is pushed exactly once and counted as rejected; transport-ish
// statuses (5xx, 429) are retried the configured number of times. Before the
// fix every 400 burned replicateAttempts × replicateBackoff per write.
func TestReplicationRetryClassification(t *testing.T) {
	withTelemetry(t)
	var status atomic.Int64
	var hits atomic.Int64
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPut || !strings.HasPrefix(r.URL.Path, "/cluster/v1/models/") {
			t.Errorf("unexpected replication request %s %s", r.Method, r.URL.Path)
		}
		hits.Add(1)
		w.WriteHeader(int(status.Load()))
	}))
	defer peer.Close()

	c, err := New(Options{Self: "http://127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		status   int64
		attempts int64
		outcome  string
	}{
		{http.StatusBadRequest, 1, "rejected"},
		{http.StatusNotFound, 1, "rejected"},
		{http.StatusInternalServerError, replicateAttempts, "error"},
		{http.StatusTooManyRequests, replicateAttempts, "error"},
	}
	for _, tc := range cases {
		status.Store(tc.status)
		hits.Store(0)
		before := replicateTotal(peer.URL, tc.outcome).Value()
		c.pushModel(peer.URL, "m", 1, []byte(`{}`))
		if got := hits.Load(); got != tc.attempts {
			t.Errorf("status %d: %d push attempts, want %d", tc.status, got, tc.attempts)
		}
		if got := replicateTotal(peer.URL, tc.outcome).Value(); got != before+1 {
			t.Errorf("status %d: outcome %q counted %v times, want 1", tc.status, tc.outcome, got-before)
		}
	}
}

// TestClusterObserveSingleGenerationStream is the e2e regression for the
// observe generation race: observe batches land on both members of a
// two-member cluster, but every refinement must execute on the model's ring
// owner (non-owners forward one hop), so the applied generations form one
// strictly increasing stream. Before the fix each member ran its own refiner
// over its half of the samples and the two raced generations through
// highest-wins replication.
func TestClusterObserveSingleGenerationStream(t *testing.T) {
	addrs := pickAddrs(t, 2)
	peerURLs := make([]string, len(addrs))
	for i, a := range addrs {
		peerURLs[i] = "http://" + a
	}
	// Effectively-zero cooldown (0 selects the 5s default): the test wants
	// every batch to publish, and all of them refine on the one ring owner.
	observe := func(cfg *service.Config) {
		cfg.EnableObserve = true
		cfg.Refine = refine.Config{MinSamples: 4, Cooldown: time.Nanosecond}
	}
	m0 := startMemberCfg(t, addrs[0], peerURLs, t.TempDir(), 50*time.Millisecond, observe)
	m1 := startMemberCfg(t, addrs[1], peerURLs, t.TempDir(), 50*time.Millisecond, observe)

	seedGen := putModelHTTP(t, m0.base, "dev", 4, 1000)
	waitForGen(t, m1, "dev", seedGen)

	// Exactly one member owns "dev"; batches posted to the other must be
	// forwarded, not refined locally.
	_, m0Owns := m0.c.Owner("dev")
	_, m1Owns := m1.c.Owner("dev")
	if m0Owns == m1Owns {
		t.Fatalf("ownership disagreement: m0=%v m1=%v", m0Owns, m1Owns)
	}

	// Alternate batches between the two members. Each batch samples a size
	// bucket never seen before, so every batch makes a reliable dirty bucket
	// and (cooldown permitting) triggers a rebuild + publish.
	var gens []uint64
	applied := 0
	for i := 0; i < 12; i++ {
		base := m0.base
		if i%2 == 1 {
			base = m1.base
		}
		size := float64(int(128) << i)
		ok, gen := postObserve(t, base, "dev", 4, size, size/1000)
		if ok {
			applied++
			gens = append(gens, gen)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if applied < 8 {
		t.Fatalf("only %d/12 batches applied; refinement not exercising the stream (gens %v)", applied, gens)
	}
	last := seedGen
	for i, g := range gens {
		if g <= last {
			t.Fatalf("generation stream not strictly increasing at %d: %v (seed %d)", i, gens, seedGen)
		}
		last = g
	}

	// Both members converge on the final generation via replication.
	waitForGen(t, m0, "dev", last)
	waitForGen(t, m1, "dev", last)
}

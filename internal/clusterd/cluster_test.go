package clusterd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"testing"
	"time"

	"fpmpart/internal/service"
)

// member is one in-process cluster instance: a service.Server with a
// Cluster attached, listening on a real TCP port.
type member struct {
	t     *testing.T
	base  string // http://host:port
	dir   string
	s     *service.Server
	c     *Cluster
	drain func(context.Context) error
}

// pickAddrs reserves n distinct loopback ports by binding and releasing
// them. The tiny race with other processes is acceptable in tests.
func pickAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	ls := make([]net.Listener, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ls[i] = l
		addrs[i] = l.Addr().String()
	}
	for _, l := range ls {
		l.Close()
	}
	return addrs
}

// startMember boots one cluster member on addr, with peers being every
// member's base URL (self included; clusterd filters it).
func startMember(t *testing.T, addr string, peerURLs []string, dir string, probe time.Duration) *member {
	return startMemberCfg(t, addr, peerURLs, dir, probe, nil)
}

// startMemberCfg is startMember with a service.Config mutator (observe
// tests enable the refiner this way).
func startMemberCfg(t *testing.T, addr string, peerURLs []string, dir string, probe time.Duration, mut func(*service.Config)) *member {
	t.Helper()
	self := "http://" + addr
	cl, err := New(Options{
		Self:          self,
		Peers:         peerURLs,
		ProbeInterval: probe,
		Logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := service.Config{
		ModelDir:              dir,
		Cluster:               cl,
		DisableRequestTracing: true,
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.Attach(s)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cl.Start(ctx); err != nil {
		t.Fatal(err)
	}
	bound, drain, err := s.ServeHandler(addr, cl.Handler(s.Handler()))
	if err != nil {
		cl.Stop()
		t.Fatalf("serve %s: %v", addr, err)
	}
	m := &member{t: t, base: "http://" + bound, dir: dir, s: s, c: cl, drain: drain}
	t.Cleanup(func() { m.stop() })
	return m
}

func (m *member) stop() {
	if m.drain == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = m.drain(ctx)
	m.c.Stop()
	m.drain = nil
}

func putModelHTTP(t *testing.T, base, id string, knots int, peak float64) uint64 {
	t.Helper()
	data, err := service.SyntheticModel(knots, peak).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodPut, base+"/v1/models/"+id, bytes.NewReader(data))
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Generation uint64 `json:"generation"`
	}
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT %s to %s: status %d: %s", id, base, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out.Generation
}

// waitForGen polls a member until its registry holds id at generation >=
// gen (replication is asynchronous).
func waitForGen(t *testing.T, m *member, id string, gen uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, mi := range m.s.Models.Snapshot() {
			if mi.ID == id && mi.Gen >= gen {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("member %s never saw %s@%d (snapshot %v)", m.base, id, gen, m.s.Models.Snapshot())
}

// partitionResult is the slice of the fpmd partition response the tests
// inspect.
type partitionResult struct {
	Cached    bool     `json:"cached"`
	Coalesced bool     `json:"coalesced"`
	Origin    string   `json:"origin"`
	ModelGens []uint64 `json:"model_generations"`
}

func postPartition(t *testing.T, base string, models []string, n int) (status int, res partitionResult, raw []byte) {
	t.Helper()
	body, _ := json.Marshal(map[string]any{"models": models, "n": n})
	resp, err := http.Post(base+"/v1/partition", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("partition on %s: %v", base, err)
	}
	defer resp.Body.Close()
	raw, _ = io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatalf("partition response: %v: %s", err, raw)
		}
	}
	return resp.StatusCode, res, raw
}

// TestClusterReplicationAndForwarding is the 3-peer end-to-end check (its
// process-level twin is cmd/fpmd's TestClusterSmokeEndToEnd): a model PUT
// to one member becomes visible on all three, any member answers any
// partition request, non-owners forward to the owner (the response's origin
// says who actually served), and the solution cache lands on the owner only.
func TestClusterReplicationAndForwarding(t *testing.T) {
	addrs := pickAddrs(t, 3)
	peerURLs := make([]string, len(addrs))
	for i, a := range addrs {
		peerURLs[i] = "http://" + a
	}
	members := make([]*member, 3)
	for i, a := range addrs {
		members[i] = startMember(t, a, peerURLs, t.TempDir(), 100*time.Millisecond)
	}

	gen := putModelHTTP(t, members[0].base, "m1", 64, 500)
	for _, m := range members {
		waitForGen(t, m, "m1", gen)
	}

	// Fire enough distinct keys through member 0 alone that the ring must
	// spread ownership: every member should show up as an origin, and only
	// owners should cache.
	origins := map[string]int{}
	const keys = 24
	for i := 0; i < keys; i++ {
		status, res, raw := postPartition(t, members[0].base, []string{"m1"}, 10000+i)
		if status != http.StatusOK {
			t.Fatalf("partition key %d: status %d: %s", i, status, raw)
		}
		if res.Origin == "" {
			t.Fatalf("cluster response missing origin: %s", raw)
		}
		origins[res.Origin]++
		if len(res.ModelGens) != 1 || res.ModelGens[0] != gen {
			t.Fatalf("response generations %v, want [%d]", res.ModelGens, gen)
		}
	}
	if len(origins) != 3 {
		t.Fatalf("origins %v: want all 3 members serving a share", origins)
	}
	totalCached := 0
	for i, m := range members {
		cl := m.s.CacheLen()
		t.Logf("member %d (%s): origin count %d, cache entries %d", i, m.base, origins[m.base], cl)
		if cl != origins[m.base] {
			t.Errorf("member %d cached %d solutions but served %d: cache is not sharded to owners", i, cl, origins[m.base])
		}
		totalCached += cl
	}
	if totalCached != keys {
		t.Errorf("cluster cached %d solutions for %d keys", totalCached, keys)
	}

	// Warm hits work from any entry point: repeating a key through a
	// different member must be served from the owner's cache.
	status, res, raw := postPartition(t, members[1].base, []string{"m1"}, 10000)
	if status != http.StatusOK || !(res.Cached || res.Coalesced) {
		t.Fatalf("repeat key not served from cache: status %d %s", status, raw)
	}
}

// TestClusterHighestWinsAndJoinSweep covers the replication conflict rule
// and the anti-entropy sweep: a stale-generation push is refused, and a
// member that joins late pulls the newest models before serving.
func TestClusterHighestWinsAndJoinSweep(t *testing.T) {
	addrs := pickAddrs(t, 3)
	peerURLs := make([]string, len(addrs))
	for i, a := range addrs {
		peerURLs[i] = "http://" + a
	}
	// Only members 0 and 1 start; member 2 joins later.
	m0 := startMember(t, addrs[0], peerURLs, t.TempDir(), 50*time.Millisecond)
	m1 := startMember(t, addrs[1], peerURLs, t.TempDir(), 50*time.Millisecond)

	// Sequential writes through different members are monotonic only once
	// the first has replicated (PutAt lifts the receiving member's counter),
	// so wait for g1 on m1 before writing through it. Concurrent writers
	// through two members are not covered here: that needs single-writer
	// forwarding to the ring owner (ROADMAP P0), not a patch in Registry.
	g1 := putModelHTTP(t, m0.base, "m1", 32, 300)
	waitForGen(t, m1, "m1", g1)
	g2 := putModelHTTP(t, m1.base, "m1", 32, 400) // update via the *other* member
	if g2 <= g1 {
		t.Fatalf("generations not monotonic across members: %d then %d", g1, g2)
	}
	waitForGen(t, m0, "m1", g2)
	waitForGen(t, m1, "m1", g2)

	// A stale push (replay of g1) must be refused by highest-wins.
	applied, err := m0.s.Models.PutAt("m1", service.SyntheticModel(32, 300), g1)
	if err != nil {
		t.Fatal(err)
	}
	if applied {
		t.Fatal("stale generation was applied over a newer model")
	}

	// Member 2 joins with an empty registry: the join sweep must pull
	// m1@g2 before it serves.
	m2 := startMember(t, addrs[2], peerURLs, t.TempDir(), 50*time.Millisecond)
	for _, mi := range m2.s.Models.Snapshot() {
		if mi.ID == "m1" && mi.Gen == g2 {
			status, res, raw := postPartition(t, m2.base, []string{"m1"}, 7777)
			if status != http.StatusOK || res.ModelGens[0] != g2 {
				t.Fatalf("join sweep member answered %d gens=%v: %s", status, res.ModelGens, raw)
			}
			return
		}
	}
	t.Fatalf("joining member missing m1@%d after sweep: %v", g2, m2.s.Models.Snapshot())
}

// TestClusterPeerDeathMovesKeys: when a member dies hard (no drain), the
// probers drop it from the ring and the remaining members keep answering
// every key — the dead member's range is re-owned, requests never fail.
func TestClusterPeerDeathMovesKeys(t *testing.T) {
	addrs := pickAddrs(t, 3)
	peerURLs := make([]string, len(addrs))
	for i, a := range addrs {
		peerURLs[i] = "http://" + a
	}
	members := make([]*member, 3)
	for i, a := range addrs {
		members[i] = startMember(t, a, peerURLs, t.TempDir(), 25*time.Millisecond)
	}
	gen := putModelHTTP(t, members[0].base, "m1", 32, 500)
	for _, m := range members {
		waitForGen(t, m, "m1", gen)
	}

	members[2].stop()

	// Wait until both survivors have dropped the dead peer from the ring.
	dead := members[2].base
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		gone := 0
		for _, m := range members[:2] {
			alive := m.c.AlivePeers()
			found := false
			for _, p := range alive {
				if p == dead {
					found = true
				}
			}
			if !found {
				gone++
			}
		}
		if gone == 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Every key must still be answerable by either survivor, including the
	// range the dead member owned.
	for i := 0; i < 16; i++ {
		entry := members[i%2]
		status, res, raw := postPartition(t, entry.base, []string{"m1"}, 20000+i)
		if status != http.StatusOK {
			t.Fatalf("key %d after peer death: status %d: %s", i, status, raw)
		}
		if res.Origin == dead {
			t.Fatalf("key %d claims dead origin %s", i, dead)
		}
	}
}

// TestClusterDeleteReplication: a DELETE through one member's public API
// removes the model from every member (best-effort broadcast).
func TestClusterDeleteReplication(t *testing.T) {
	addrs := pickAddrs(t, 2)
	peerURLs := []string{"http://" + addrs[0], "http://" + addrs[1]}
	m0 := startMember(t, addrs[0], peerURLs, t.TempDir(), 100*time.Millisecond)
	m1 := startMember(t, addrs[1], peerURLs, t.TempDir(), 100*time.Millisecond)
	gen := putModelHTTP(t, m0.base, "m1", 32, 400)
	waitForGen(t, m1, "m1", gen)

	if got := m0.c.Peers(); len(got) != 1 || got[0] != m1.base {
		t.Fatalf("m0 peers %v, want [%s]", got, m1.base)
	}

	req, _ := http.NewRequest(http.MethodDelete, m0.base+"/v1/models/m1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(m0.s.Models.Snapshot()) == 0 && len(m1.s.Models.Snapshot()) == 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("delete did not propagate: m0=%v m1=%v", m0.s.Models.Snapshot(), m1.s.Models.Snapshot())
}

// TestForwardedHeaderNeverLoops: a request carrying the forwarded marker is
// served locally even by a non-owner, so ring disagreement cannot bounce a
// request between peers.
func TestForwardedHeaderNeverLoops(t *testing.T) {
	addrs := pickAddrs(t, 2)
	peerURLs := []string{"http://" + addrs[0], "http://" + addrs[1]}
	m0 := startMember(t, addrs[0], peerURLs, t.TempDir(), 100*time.Millisecond)
	m1 := startMember(t, addrs[1], peerURLs, t.TempDir(), 100*time.Millisecond)
	gen := putModelHTTP(t, m0.base, "m1", 32, 500)
	waitForGen(t, m1, "m1", gen)

	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < 8; i++ {
		body, _ := json.Marshal(map[string]any{"models": []string{"m1"}, "n": 30000 + i})
		req, _ := http.NewRequest(http.MethodPost, m0.base+"/v1/partition", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(service.ForwardedHeader, "test")
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var res partitionResult
		if err := json.Unmarshal(data, &res); err != nil {
			t.Fatalf("%v: %s", err, data)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("forwarded request: status %d: %s", resp.StatusCode, data)
		}
		if res.Origin != m0.base {
			t.Fatalf("forwarded request served by %s, want local %s (no second hop allowed)", res.Origin, m0.base)
		}
	}
}

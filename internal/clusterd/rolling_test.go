package clusterd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// rollingReport is what fireRolling tallies. Dropped counts requests no peer
// could answer plus non-429 HTTP errors — the quantity the test pins to zero.
type rollingReport struct {
	Fired, Completed, Rejected429, Dropped, Retried, StaleGen int
}

// fireRolling sends partition requests over model m1 at a fixed rate until
// ctx is cancelled, round-robin across peers. A transport failure retries on
// the next peer (every member can serve every key, so the retry is safe);
// only a request that failed on all of them counts as dropped. minGen is
// read at each request start: a 200 answer pinning an older generation is
// stale. Returns once every in-flight request has resolved.
func fireRolling(ctx context.Context, peers []string, rps int, minGen *atomic.Uint64) rollingReport {
	client := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxIdleConns: 256, MaxIdleConnsPerHost: 256,
	}}
	var mu sync.Mutex
	var rep rollingReport
	var wg sync.WaitGroup
	tick := time.NewTicker(time.Second / time.Duration(rps))
	defer tick.Stop()
	for idx := 0; ; idx++ {
		select {
		case <-ctx.Done():
			wg.Wait()
			return rep
		case <-tick.C:
		}
		rep.Fired++
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			floor := minGen.Load()
			body, _ := json.Marshal(map[string]any{"models": []string{"m1"}, "n": 50000 + idx%32})
			for attempt := range peers {
				// Not bound to ctx: the run ending must not fail a request
				// that is already on the wire.
				resp, err := client.Post(peers[(idx+attempt)%len(peers)]+"/v1/partition",
					"application/json", bytes.NewReader(body))
				var data []byte
				if err == nil {
					data, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				mu.Lock()
				if err != nil {
					rep.Retried++
					mu.Unlock()
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					rep.Completed++
					var res partitionResult
					_ = json.Unmarshal(data, &res)
					if len(res.ModelGens) != 1 || res.ModelGens[0] < floor {
						rep.StaleGen++
					}
				case http.StatusTooManyRequests:
					rep.Rejected429++
				default:
					rep.Dropped++
				}
				mu.Unlock()
				return
			}
			mu.Lock()
			rep.Dropped++
			mu.Unlock()
		}(idx)
	}
}

// TestRollingRestartZeroDrop is the in-process rolling-restart check:
// fireRolling runs at a fixed rate against 3 members while each one is
// drained (the same graceful path the SIGTERM handler takes) and restarted
// in turn, and mid-run a model update replicates through the churn. The
// acceptance properties: zero dropped requests (non-429 failures) and zero
// stale-generation answers once the update has provably reached every
// member.
func TestRollingRestartZeroDrop(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second rolling-restart run")
	}
	addrs := pickAddrs(t, 3)
	peerURLs := make([]string, len(addrs))
	for i, a := range addrs {
		peerURLs[i] = "http://" + a
	}
	dirs := make([]string, 3)
	members := make([]*member, 3)
	for i, a := range addrs {
		dirs[i] = t.TempDir()
		members[i] = startMember(t, a, peerURLs, dirs[i], 25*time.Millisecond)
	}

	g1 := putModelHTTP(t, members[0].base, "m1", 64, 500)
	for _, m := range members {
		waitForGen(t, m, "m1", g1)
	}

	var minGen atomic.Uint64
	minGen.Store(g1)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan rollingReport, 1)
	go func() { done <- fireRolling(ctx, peerURLs, 120, &minGen) }()

	// Let the load settle, then roll member 0.
	time.Sleep(300 * time.Millisecond)
	rollMember(t, members, 0, addrs, peerURLs, dirs)

	// Mid-run model update through member 1: bump MinGen only once every
	// member reports the new generation, then any answer below it is a
	// genuine staleness bug.
	g2 := putModelHTTP(t, members[1].base, "m1", 64, 650)
	if g2 <= g1 {
		t.Fatalf("update generation %d not above %d", g2, g1)
	}
	for _, m := range members {
		waitForGen(t, m, "m1", g2)
	}
	minGen.Store(g2)

	rollMember(t, members, 1, addrs, peerURLs, dirs)
	rollMember(t, members, 2, addrs, peerURLs, dirs)

	time.Sleep(300 * time.Millisecond)
	cancel()
	rep := <-done
	t.Logf("rolling report: %+v", rep)
	if rep.Completed == 0 {
		t.Fatal("rolling run completed no requests")
	}
	if rep.Dropped != 0 {
		t.Errorf("rolling restart dropped %d requests; want 0 (report %+v)", rep.Dropped, rep)
	}
	if rep.StaleGen != 0 {
		t.Errorf("rolling restart served %d stale-generation answers; want 0", rep.StaleGen)
	}
	if rep.Retried == 0 {
		t.Log("note: no retries observed — restarts may not have overlapped the load window")
	}
	// The restarted members must still answer with the updated generation.
	for i, m := range members {
		status, res, raw := postPartition(t, m.base, []string{"m1"}, 999_999)
		if status != 200 {
			t.Fatalf("member %d after full roll: status %d: %s", i, status, raw)
		}
		if len(res.ModelGens) != 1 || res.ModelGens[0] < g2 {
			t.Errorf("member %d answers with generations %v, want >= %d", i, res.ModelGens, g2)
		}
	}
}

// rollMember drains member i (graceful shutdown, as SIGTERM would), keeps it
// down long enough for probes to mark it dead and traffic to reroute, then
// restarts it on the same address with the same model dir — the restarted
// instance must sweep newer generations from its peers before listening.
func rollMember(t *testing.T, members []*member, i int, addrs, peerURLs, dirs []string) {
	t.Helper()
	members[i].stop()
	time.Sleep(150 * time.Millisecond)
	members[i] = startMember(t, addrs[i], peerURLs, dirs[i], 25*time.Millisecond)
	// Readiness: the member answers partition traffic before we roll on.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if status, _, _ := postPartition(t, members[i].base, []string{"m1"}, 1234); status == 200 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("member %d did not come back after restart", i)
}

package clusterd

import (
	"context"
	"log/slog"
	"net/http"
	"sync"
	"time"
)

// membership tracks which peers are alive and maintains the consistent-hash
// ring over them. Peers are probed at /healthz on a fixed interval: a 200
// is healthy, anything else — a 503 from a draining peer, a refused
// connection from a dead one — is a failure. A peer is declared dead after
// failThreshold consecutive failures (so one dropped probe doesn't churn
// the ring) and revived by a single success (so a restarted peer takes its
// key range back quickly). The local instance is always a member of its own
// ring: even while draining it can still serve the requests it has.
type membership struct {
	self   string
	peers  []string // remote peers only (self excluded)
	vnodes int
	client *http.Client
	logger *slog.Logger

	mu    sync.RWMutex
	alive map[string]bool
	fails map[string]int
	ring  *Ring

	stop     chan struct{}
	stopOnce sync.Once
	started  bool
	done     chan struct{}
}

func newMembership(self string, peers []string, vnodes int, client *http.Client, logger *slog.Logger) *membership {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	m := &membership{
		self:   self,
		peers:  peers,
		vnodes: vnodes,
		client: client,
		logger: logger,
		alive:  make(map[string]bool, len(peers)),
		fails:  make(map[string]int, len(peers)),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	// Start optimistic: an unreachable peer costs one forward fallback until
	// the first probe round lands, whereas starting pessimistic would route
	// everything to self and dump the whole key space on one cache.
	for _, p := range peers {
		m.alive[p] = true
		peerAlive(p).Set(1)
	}
	m.rebuildLocked()
	return m
}

// Ring returns the current ring (immutable snapshot).
func (m *membership) Ring() *Ring {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.ring
}

// AlivePeers returns the remote peers currently considered alive.
func (m *membership) AlivePeers() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.peers))
	for _, p := range m.peers {
		if m.alive[p] {
			out = append(out, p)
		}
	}
	return out
}

// AllPeers returns every configured remote peer, alive or not.
func (m *membership) AllPeers() []string { return m.peers }

// rebuildLocked recomputes the ring from self + alive peers. Callers hold
// m.mu for writing (or are the constructor).
func (m *membership) rebuildLocked() {
	members := make([]string, 0, len(m.peers)+1)
	members = append(members, m.self)
	for _, p := range m.peers {
		if m.alive[p] {
			members = append(members, p)
		}
	}
	m.ring = NewRing(members, m.vnodes)
	ringMembers.Set(float64(len(members)))
}

// observe folds one probe result into the state, rebuilding the ring when a
// peer's liveness flips.
func (m *membership) observe(peer string, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ok {
		m.fails[peer] = 0
		if !m.alive[peer] {
			m.alive[peer] = true
			peerAlive(peer).Set(1)
			m.rebuildLocked()
			m.logger.Info("cluster peer up", slog.String("peer", peer))
		}
		return
	}
	probeFailures(peer).Inc()
	m.fails[peer]++
	if m.alive[peer] && m.fails[peer] >= failThreshold {
		m.alive[peer] = false
		peerAlive(peer).Set(0)
		m.rebuildLocked()
		m.logger.Warn("cluster peer down", slog.String("peer", peer))
	}
}

// ProbeOnce probes every peer concurrently and waits for the round to
// finish. The probe loop calls it on a timer; Start and tests call it
// directly for a deterministic membership view.
func (m *membership) ProbeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, p := range m.peers {
		wg.Add(1)
		go func(peer string) {
			defer wg.Done()
			m.observe(peer, m.probe(ctx, peer))
		}(p)
	}
	wg.Wait()
}

func (m *membership) probe(ctx context.Context, peer string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return false
	}
	drainClose(resp.Body)
	return resp.StatusCode == http.StatusOK
}

// Start launches the probe loop at interval. Stop ends it.
func (m *membership) Start(interval time.Duration) {
	m.started = true
	go func() {
		defer close(m.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				ctx, cancel := context.WithTimeout(context.Background(), interval)
				m.ProbeOnce(ctx)
				cancel()
			}
		}
	}()
}

func (m *membership) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
	if m.started {
		<-m.done
	}
}

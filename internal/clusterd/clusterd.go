package clusterd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"fpmpart/internal/fpm"
	"fpmpart/internal/service"
)

// Peer RPC, failure-detection and replication constants.
const (
	// failThreshold is how many consecutive failed probes mark a peer dead.
	failThreshold = 2
	// requestTimeout bounds each peer RPC (forward, replicate, probe, state
	// fetch); a forward carries a cold solve.
	requestTimeout = 10 * time.Second
	// replicateAttempts is how many times a model push to one peer is tried
	// before giving up (the peer's join sweep repairs the miss).
	replicateAttempts = 3
	// replicateBackoff is the delay between replication attempts.
	replicateBackoff = 100 * time.Millisecond
)

// Options configures one cluster member.
type Options struct {
	// Self is this instance's advertised base URL (scheme + host:port),
	// e.g. "http://10.0.0.3:8080". Required.
	Self string
	// Peers are the other members' base URLs. Self is filtered out, so the
	// same -peers list can be handed to every member.
	Peers []string
	// VNodes per member on the ring. 0 selects DefaultVNodes. Every member
	// (and every ring-aware client) must use the same value.
	VNodes int
	// ProbeInterval is the health-check period. Default 500ms.
	ProbeInterval time.Duration
	// Logger receives membership/replication events. Nil discards.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 500 * time.Millisecond
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}

// Cluster makes one fpmd instance a member of a sharded, replicated
// cluster. It implements service.ClusterHooks (key ownership, request
// forwarding, model replication) and serves the peer-facing endpoints:
//
//	GET /cluster/v1/state        membership + model snapshot (id, gen)
//	PUT /cluster/v1/models/{id}  replication apply (highest-wins, no re-push)
//
// Construction order matters: New the cluster, pass it as Config.Cluster to
// service.New, Attach the server, then Start (which runs the join-time
// anti-entropy sweep before the listener should open).
type Cluster struct {
	opts   Options
	mem    *membership
	client *http.Client
	logger *slog.Logger

	mu  sync.RWMutex
	srv *service.Server

	repWG sync.WaitGroup
}

// New builds a cluster member. Call Attach and Start before serving.
func New(opts Options) (*Cluster, error) {
	opts = opts.withDefaults()
	if opts.Self == "" {
		return nil, fmt.Errorf("clusterd: Self base URL required")
	}
	var peers []string
	for _, p := range opts.Peers {
		p = strings.TrimSuffix(p, "/")
		if p != "" && p != opts.Self {
			peers = append(peers, p)
		}
	}
	opts.Self = strings.TrimSuffix(opts.Self, "/")
	client := &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		},
	}
	c := &Cluster{
		opts:   opts,
		client: client,
		logger: opts.Logger,
	}
	c.mem = newMembership(opts.Self, peers, opts.VNodes, client, opts.Logger)
	return c, nil
}

// Attach binds the server whose registry this member replicates into.
func (c *Cluster) Attach(srv *service.Server) {
	c.mu.Lock()
	c.srv = srv
	c.mu.Unlock()
}

func (c *Cluster) server() *service.Server {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.srv
}

// Start probes the peers once (synchronously, so the first ring reflects
// reality), runs the join-time anti-entropy sweep — pulling every model a
// live peer holds at a newer generation — and launches the probe loop.
// Call it before opening the listener so a restarted member cannot serve a
// stale-generation answer in its first milliseconds.
func (c *Cluster) Start(ctx context.Context) error {
	c.mem.ProbeOnce(ctx)
	if _, err := c.SyncOnce(ctx); err != nil {
		// A failed sweep (all peers down, cold cluster boot) is not fatal:
		// push replication and the peers' own sweeps converge later.
		c.logger.Warn("cluster join sweep incomplete", slog.Any("error", err))
	}
	c.mem.Start(c.opts.ProbeInterval)
	return nil
}

// Stop ends the probe loop and waits for in-flight replication pushes.
func (c *Cluster) Stop() {
	c.mem.Stop()
	c.repWG.Wait()
}

// Self implements service.ClusterHooks.
func (c *Cluster) Self() string { return c.opts.Self }

// Peers returns the configured remote peers.
func (c *Cluster) Peers() []string { return c.mem.AllPeers() }

// AlivePeers returns the remote peers the prober currently considers up.
func (c *Cluster) AlivePeers() []string { return c.mem.AlivePeers() }

// Owner implements service.ClusterHooks: the ring owner of key, and
// whether that is this instance. An empty ring (impossible: self is always
// a member) defends by owning everything locally.
func (c *Cluster) Owner(key string) (string, bool) {
	owner := c.mem.Ring().Owner(key)
	if owner == "" || owner == c.opts.Self {
		return c.opts.Self, true
	}
	return owner, false
}

// maxForwardBody bounds a relayed peer response. A response that does not
// fit is an error, never a silent truncation: relaying the first 1 MiB of a
// larger body would serve invalid JSON under the owner's 200 status.
const maxForwardBody = 1 << 20

// ForwardPartition implements service.ClusterHooks: one proxied hop to the
// owner's /v1/partition. The ForwardedHeader stops the owner from
// forwarding again; the request ID rides along so the two flight-recorder
// entries correlate.
func (c *Cluster) ForwardPartition(ctx context.Context, peer string, body []byte, requestID string) (int, []byte, error) {
	return c.forward(ctx, peer, "/v1/partition", body, requestID)
}

// ForwardObserve implements service.ClusterHooks: one proxied hop to the
// model owner's /v1/observe, so refinement for a model happens on exactly
// one member and its generation stream stays strictly increasing.
func (c *Cluster) ForwardObserve(ctx context.Context, peer string, body []byte, requestID string) (int, []byte, error) {
	return c.forward(ctx, peer, "/v1/observe", body, requestID)
}

func (c *Cluster) forward(ctx context.Context, peer, path string, body []byte, requestID string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(service.ForwardedHeader, c.opts.Self)
	if requestID != "" {
		req.Header.Set("X-Request-Id", requestID)
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	// Read one byte past the relay limit to distinguish "fits exactly" from
	// "overflows": on overflow the caller falls back to its local path.
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxForwardBody+1))
	if err != nil {
		return 0, nil, err
	}
	if len(data) > maxForwardBody {
		forwardOverflows.Inc()
		return 0, nil, fmt.Errorf("clusterd: response from %s%s exceeds relay limit %d bytes", peer, path, maxForwardBody)
	}
	return resp.StatusCode, data, nil
}

// ReplicateModel implements service.ClusterHooks: push the accepted write
// to every configured peer, asynchronously, with bounded retries. A peer
// that stays unreachable converges via its next join sweep.
func (c *Cluster) ReplicateModel(id string, gen uint64, raw []byte) {
	for _, peer := range c.mem.AllPeers() {
		c.repWG.Add(1)
		go func(peer string) {
			defer c.repWG.Done()
			c.pushModel(peer, id, gen, raw)
		}(peer)
	}
}

// rejectedError marks a replication response that can never succeed on
// retry (a definitive 4xx: bad body, invalid generation header). Retrying
// one would burn replicateAttempts × replicateBackoff per peer per write
// for nothing.
type rejectedError struct {
	status int
	msg    string
}

func (e *rejectedError) Error() string {
	return fmt.Sprintf("status %d: %s", e.status, e.msg)
}

// retryableStatus reports whether a replication response status is worth
// another attempt: server-side trouble (5xx) and backpressure (429) are;
// every other non-200 is a definitive rejection.
func retryableStatus(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

func (c *Cluster) pushModel(peer, id string, gen uint64, raw []byte) {
	var lastErr error
	for attempt := 0; attempt < replicateAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(replicateBackoff)
		}
		ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		err := c.putModelTo(ctx, peer, id, gen, raw)
		cancel()
		if err == nil {
			replicateTotal(peer, "ok").Inc()
			return
		}
		lastErr = err
		var rej *rejectedError
		if errors.As(err, &rej) {
			// Definitive rejection: no retry can change the answer.
			replicateTotal(peer, "rejected").Inc()
			c.logger.Warn("model replication rejected",
				slog.String("peer", peer), slog.String("model", id),
				slog.Uint64("gen", gen), slog.Any("error", err))
			return
		}
	}
	replicateTotal(peer, "error").Inc()
	c.logger.Warn("model replication failed",
		slog.String("peer", peer), slog.String("model", id),
		slog.Uint64("gen", gen), slog.Any("error", lastErr))
}

func (c *Cluster) putModelTo(ctx context.Context, peer, id string, gen uint64, raw []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		peer+"/cluster/v1/models/"+id, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(service.GenerationHeader, strconv.FormatUint(gen, 10))
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		if !retryableStatus(resp.StatusCode) {
			return fmt.Errorf("replicate %s to %s: %w", id, peer,
				&rejectedError{status: resp.StatusCode, msg: string(data)})
		}
		return fmt.Errorf("replicate %s to %s: status %d: %s", id, peer, resp.StatusCode, data)
	}
	return nil
}

// ReplicateDelete implements service.ClusterHooks. Deletes propagate
// best-effort without tombstones: a delete racing a concurrent Put of the
// same id can lose (the Put's higher generation wins on every peer), which
// is the documented semantic — models are re-registered, not un-named.
func (c *Cluster) ReplicateDelete(id string) {
	for _, peer := range c.mem.AllPeers() {
		c.repWG.Add(1)
		go func(peer string) {
			defer c.repWG.Done()
			ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodDelete, peer+"/cluster/v1/models/"+id, nil)
			if err != nil {
				return
			}
			resp, err := c.client.Do(req)
			if err != nil {
				replicateTotal(peer, "error").Inc()
				return
			}
			drainClose(resp.Body)
			replicateTotal(peer, "ok").Inc()
		}(peer)
	}
}

// stateResponse is the /cluster/v1/state payload: enough for a joining
// peer (or a ring-aware client) to reconstruct routing and compare model
// generations.
type stateResponse struct {
	Self   string              `json:"self"`
	Peers  []string            `json:"peers"`
	Alive  []string            `json:"alive"`
	VNodes int                 `json:"vnodes"`
	Models []service.ModelInfo `json:"models"`
}

// Handler mounts the cluster endpoints in front of base (the service
// handler). The replication endpoints are deliberately outside the
// service's instrument middleware: they are peer traffic, not user
// requests, and must stay reachable while the serving path is saturated.
func (c *Cluster) Handler(base http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /cluster/v1/state", c.handleState)
	mux.HandleFunc("PUT /cluster/v1/models/{id}", c.handleReplicatePut)
	mux.HandleFunc("DELETE /cluster/v1/models/{id}", c.handleReplicateDelete)
	mux.Handle("/", base)
	return mux
}

func (c *Cluster) handleState(w http.ResponseWriter, _ *http.Request) {
	srv := c.server()
	if srv == nil {
		http.Error(w, `{"error":"cluster not attached"}`, http.StatusServiceUnavailable)
		return
	}
	vn := c.opts.VNodes
	if vn <= 0 {
		vn = DefaultVNodes
	}
	st := stateResponse{
		Self:   c.opts.Self,
		Peers:  c.mem.AllPeers(),
		Alive:  c.mem.AlivePeers(),
		VNodes: vn,
		Models: srv.Models.Snapshot(),
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(st)
}

func (c *Cluster) handleReplicatePut(w http.ResponseWriter, r *http.Request) {
	srv := c.server()
	if srv == nil {
		http.Error(w, `{"error":"cluster not attached"}`, http.StatusServiceUnavailable)
		return
	}
	id := r.PathValue("id")
	gen, err := strconv.ParseUint(r.Header.Get(service.GenerationHeader), 10, 64)
	if err != nil || gen == 0 {
		http.Error(w, `{"error":"missing or invalid `+service.GenerationHeader+`"}`, http.StatusBadRequest)
		return
	}
	data, err := io.ReadAll(io.LimitReader(r.Body, 32<<20))
	if err != nil {
		http.Error(w, `{"error":"read body"}`, http.StatusBadRequest)
		return
	}
	pl := new(fpm.PiecewiseLinear)
	if err := pl.UnmarshalJSON(data); err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusBadRequest)
		return
	}
	applied, err := srv.Models.PutAt(id, pl, gen)
	if err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusInternalServerError)
		return
	}
	if !applied {
		replicateApplied("stale").Inc()
	} else {
		replicateApplied("applied").Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"id":%q,"generation":%d,"applied":%t}`+"\n", id, gen, applied)
}

func (c *Cluster) handleReplicateDelete(w http.ResponseWriter, r *http.Request) {
	srv := c.server()
	if srv == nil {
		http.Error(w, `{"error":"cluster not attached"}`, http.StatusServiceUnavailable)
		return
	}
	id := r.PathValue("id")
	// Idempotent: deleting an id a peer never had is success, not 404.
	_ = srv.Models.Delete(id)
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, `{"deleted":%q}`+"\n", id)
}

// maxDrain bounds what drainClose reads of a body nobody wants.
const maxDrain = 64 << 10

// drainClose reads what is left of a response body, up to maxDrain bytes,
// then closes it. Go's transport keeps a keep-alive connection only when its
// body was read to EOF before Close; a longer body costs its connection
// rather than an unbounded read.
func drainClose(body io.ReadCloser) {
	_, _ = io.CopyN(io.Discard, body, maxDrain)
	body.Close()
}

// FetchState retrieves a peer's cluster state.
func (c *Cluster) FetchState(ctx context.Context, peer string) (*stateResponse, error) {
	return fetchState(ctx, c.client, peer)
}

func fetchState(ctx context.Context, client *http.Client, peer string) (*stateResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/cluster/v1/state", nil)
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("state from %s: status %d", peer, resp.StatusCode)
	}
	st := new(stateResponse)
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(st); err != nil {
		return nil, err
	}
	return st, nil
}

// SyncOnce runs one anti-entropy sweep: fetch every live peer's model
// snapshot, pull any model held remotely at a generation newer than ours,
// and apply it highest-wins. Returns how many models were pulled. Errors
// from individual peers are collected but do not abort the sweep.
func (c *Cluster) SyncOnce(ctx context.Context) (int, error) {
	srv := c.server()
	if srv == nil {
		return 0, fmt.Errorf("clusterd: not attached")
	}
	var firstErr error
	pulled := 0
	for _, peer := range c.mem.AlivePeers() {
		st, err := c.FetchState(ctx, peer)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		local := map[string]uint64{}
		for _, mi := range srv.Models.Snapshot() {
			local[mi.ID] = mi.Gen
		}
		for _, mi := range st.Models {
			if mi.Gen <= local[mi.ID] {
				continue
			}
			if err := c.pullModel(ctx, peer, mi.ID); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			pulled++
			antiEntropyPulls.Inc()
		}
	}
	return pulled, firstErr
}

// pullModel fetches one model (JSON plus its generation header) from peer
// and applies it highest-wins.
func (c *Cluster) pullModel(ctx context.Context, peer, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/models/"+id, nil)
	if err != nil {
		return err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("pull %s from %s: status %d", id, peer, resp.StatusCode)
	}
	gen, err := strconv.ParseUint(resp.Header.Get(service.GenerationHeader), 10, 64)
	if err != nil || gen == 0 {
		return fmt.Errorf("pull %s from %s: missing generation header", id, peer)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 32<<20))
	if err != nil {
		return err
	}
	pl := new(fpm.PiecewiseLinear)
	if err := pl.UnmarshalJSON(data); err != nil {
		return fmt.Errorf("pull %s from %s: %w", id, peer, err)
	}
	_, err = c.server().Models.PutAt(id, pl, gen)
	return err
}

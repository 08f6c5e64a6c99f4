package workerd

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"fpmpart/internal/fpm"
)

// ModelSink is how the pool publishes a worker's self-calibrated model into
// the coordinator's registry (internal/service adapts its Registry; the pool
// itself must not import service). It returns the generation the model was
// stored at.
type ModelSink interface {
	PutWorkerModel(name string, pl *fpm.PiecewiseLinear) (gen uint64, err error)
}

// PoolOptions tunes worker tracking.
type PoolOptions struct {
	// TTL is how long a worker stays alive without a heartbeat before the
	// janitor declares it dead. Default 5s.
	TTL time.Duration
	// Logger receives membership events. Nil discards.
	Logger *slog.Logger
}

func (o PoolOptions) withDefaults() PoolOptions {
	if o.TTL <= 0 {
		o.TTL = 5 * time.Second
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}

type poolEntry struct {
	info WorkerInfo
}

// Pool tracks registered workers: liveness from heartbeats plus a TTL
// janitor.
type Pool struct {
	opts PoolOptions
	sink ModelSink
	// client performs the registration-time reachability probe.
	client *http.Client

	mu      sync.RWMutex
	workers map[string]*poolEntry

	started  bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewPool builds a pool that publishes registered models through sink
// (which may be nil when the coordinator manages models itself).
func NewPool(sink ModelSink, opts PoolOptions) *Pool {
	return &Pool{
		opts:    opts.withDefaults(),
		sink:    sink,
		client:  &http.Client{Timeout: 10 * time.Second},
		workers: make(map[string]*poolEntry),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// TTL returns the liveness window.
func (p *Pool) TTL() time.Duration { return p.opts.TTL }

// Validate checks a registration without contacting the worker: it needs a
// name, a URL with a scheme and a host, and a model in the fpm JSON wire
// form. It returns the decoded model.
func (reg *Registration) Validate() (*fpm.PiecewiseLinear, error) {
	if reg.Name == "" {
		return nil, fmt.Errorf("workerd: registration missing name")
	}
	u, err := url.Parse(reg.URL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("workerd: registration URL %q invalid", reg.URL)
	}
	if len(reg.Model) == 0 {
		return nil, fmt.Errorf("workerd: registration missing self-calibrated model")
	}
	pl := new(fpm.PiecewiseLinear)
	if err := pl.UnmarshalJSON(reg.Model); err != nil {
		return nil, fmt.Errorf("workerd: registration model: %w", err)
	}
	return pl, nil
}

// Register validates reg, proves the advertised URL answers (one GET
// /healthz), publishes the worker's self-calibrated model, and upserts the
// pool entry. Re-registration of a live or dead worker is an upsert: the
// worker is probed again and revived.
func (p *Pool) Register(ctx context.Context, reg Registration) (WorkerInfo, error) {
	pl, err := reg.Validate()
	if err != nil {
		registrationsTotal("invalid").Inc()
		return WorkerInfo{}, err
	}

	if err := p.probe(ctx, reg.URL); err != nil {
		registrationsTotal("unreachable").Inc()
		return WorkerInfo{}, fmt.Errorf("workerd: probing %s: %w", reg.Name, err)
	}

	var gen uint64
	if p.sink != nil {
		gen, err = p.sink.PutWorkerModel(reg.Name, pl)
		if err != nil {
			registrationsTotal("rejected").Inc()
			return WorkerInfo{}, fmt.Errorf("workerd: publishing model for %s: %w", reg.Name, err)
		}
	}

	info := WorkerInfo{
		Name: reg.Name, URL: reg.URL, Cores: reg.Cores,
		Alive: true, Generation: gen, LastSeen: time.Now(),
	}
	p.mu.Lock()
	if prev, ok := p.workers[reg.Name]; ok {
		info.Shards, info.Failures = prev.info.Shards, prev.info.Failures
	}
	p.workers[reg.Name] = &poolEntry{info: info}
	p.updateAliveLocked()
	p.mu.Unlock()
	registrationsTotal("ok").Inc()
	p.opts.Logger.Info("worker registered",
		slog.String("worker", reg.Name), slog.String("url", reg.URL))
	return info, nil
}

// probe checks that a worker's advertised base URL answers GET /healthz.
func (p *Pool) probe(ctx context.Context, baseURL string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimRight(baseURL, "/")+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drained only so the connection is reused
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /healthz: status %d", resp.StatusCode)
	}
	return nil
}

// Heartbeat refreshes a worker's liveness window, reviving a dead entry.
// It reports whether the worker is known (false = the worker should
// re-register, e.g. after a pool restart).
func (p *Pool) Heartbeat(name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.workers[name]
	if !ok {
		return false
	}
	e.info.LastSeen = time.Now()
	if !e.info.Alive {
		e.info.Alive = true
		p.opts.Logger.Info("worker revived by heartbeat", slog.String("worker", name))
	}
	p.updateAliveLocked()
	return true
}

// MarkDead removes a worker from dispatch (heartbeat may revive it).
func (p *Pool) MarkDead(name, reason string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.workers[name]
	if !ok || !e.info.Alive {
		return
	}
	e.info.Alive = false
	p.updateAliveLocked()
	deathsTotal(reason).Inc()
	p.opts.Logger.Warn("worker marked dead",
		slog.String("worker", name), slog.String("reason", reason))
}

// Remove deletes a worker entirely, reporting whether it existed.
func (p *Pool) Remove(name string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.workers[name]
	delete(p.workers, name)
	p.updateAliveLocked()
	return ok
}

// Get returns one worker's current state.
func (p *Pool) Get(name string) (WorkerInfo, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	e, ok := p.workers[name]
	if !ok {
		return WorkerInfo{}, false
	}
	return e.info, true
}

// recordShard counts a dispatch outcome against a worker.
func (p *Pool) recordShard(name string, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e, found := p.workers[name]; found {
		e.info.Shards++
		if !ok {
			e.info.Failures++
		}
	}
}

// Alive returns the live workers sorted by name (deterministic shard order).
func (p *Pool) Alive() []WorkerInfo {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]WorkerInfo, 0, len(p.workers))
	for _, e := range p.workers {
		if e.info.Alive {
			out = append(out, e.info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// List returns every worker (alive and dead) sorted by name.
func (p *Pool) List() []WorkerInfo {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]WorkerInfo, 0, len(p.workers))
	for _, e := range p.workers {
		out = append(out, e.info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Start launches the TTL janitor. Stop with Stop.
func (p *Pool) Start() {
	p.mu.Lock()
	if p.started {
		p.mu.Unlock()
		return
	}
	p.started = true
	p.mu.Unlock()
	go func() {
		defer close(p.done)
		tick := time.NewTicker(p.opts.TTL / 2)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.expire()
			}
		}
	}()
}

// Stop halts the janitor.
func (p *Pool) Stop() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.mu.RLock()
	started := p.started
	p.mu.RUnlock()
	if !started {
		return
	}
	select {
	case <-p.done:
	case <-time.After(time.Second):
	}
}

func (p *Pool) expire() {
	cut := time.Now().Add(-p.opts.TTL)
	var expired []string
	p.mu.Lock()
	for name, e := range p.workers {
		if e.info.Alive && e.info.LastSeen.Before(cut) {
			e.info.Alive = false
			expired = append(expired, name)
		}
	}
	if len(expired) > 0 {
		p.updateAliveLocked()
	}
	p.mu.Unlock()
	for _, name := range expired {
		deathsTotal("heartbeat-timeout").Inc()
		p.opts.Logger.Warn("worker heartbeat expired", slog.String("worker", name))
	}
}

func (p *Pool) updateAliveLocked() {
	n := 0
	for _, e := range p.workers {
		if e.info.Alive {
			n++
		}
	}
	workersAlive.Set(float64(n))
}

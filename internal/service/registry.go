// Package service turns the in-process FPM partitioner into
// partitioning-as-a-service: a registry of serialized functional performance
// models plus an HTTP JSON API (cmd/fpmd) that answers partition and
// prediction queries against them. The paper computes one partition offline
// for one dedicated node; fupermod (arXiv:1109.3074) already treats
// performance models as persisted artifacts exchanged between tools, and
// this package takes the next step — models become named server-side
// resources, and the partition computation becomes a cached, admission-
// controlled request path.
package service

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"

	"fpmpart/internal/fpm"
)

// ErrNotFound is returned when a model id is not registered.
var ErrNotFound = errors.New("service: model not found")

// idPattern keeps ids usable as file names under the persistence directory:
// no separators, no "..", no empty string.
var idPattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

// Model is one registered performance model plus its registry metadata.
type Model struct {
	// ID is the registry key (e.g. "gtx680", "socket1x6").
	ID string
	// PL is the piecewise-linear model itself. Immutable once registered.
	PL *fpm.PiecewiseLinear
	// Gen is the registry generation at which this model was stored. It
	// changes on every Put, so cache keys that embed it are invalidated
	// when a model is replaced. In cluster mode generations travel with
	// replicated models and conflicts resolve highest-wins, so Gen is
	// comparable across peers.
	Gen uint64
	// Raw is the model's JSON wire form, marshaled once at registration so
	// GET and peer replication never re-marshal on the hot path.
	Raw []byte
}

// ModelInfo is one entry of a registry snapshot: enough for a peer to
// decide whether its copy of a model is stale (anti-entropy).
type ModelInfo struct {
	ID  string `json:"id"`
	Gen uint64 `json:"gen"`
}

// Registry is the concurrency-safe model store. When Dir is set, models are
// persisted as <id>.json files (the fpm JSON wire form) and reloaded by
// Load, so a restarted daemon serves the same registry.
type Registry struct {
	mu     sync.RWMutex
	models map[string]*Model
	gen    uint64
	dir    string
	// onWrite, when set, runs after a Put, an applied PutAt or a Delete of
	// id (outside the registry lock). The server hangs the solution-cache
	// purge on it, so every writer — HTTP handlers, replication, the
	// refiner, worker registration — invalidates through one place. sameGen
	// says the write replaced id's content without changing its generation
	// (PutAt's tiebreak), so keys naming the current generation are stale too.
	onWrite func(id string, sameGen bool)
}

// NewRegistry returns an empty registry persisting to dir ("" disables
// persistence).
func NewRegistry(dir string) *Registry {
	return &Registry{models: map[string]*Model{}, dir: dir}
}

// ValidID reports whether id is acceptable as a model id.
func ValidID(id string) bool { return idPattern.MatchString(id) }

// Put registers (or replaces) a model under id and persists it when a
// directory is configured.
func (r *Registry) Put(id string, pl *fpm.PiecewiseLinear) (*Model, error) {
	if !ValidID(id) {
		return nil, fmt.Errorf("service: invalid model id %q", id)
	}
	if pl == nil {
		return nil, errors.New("service: nil model")
	}
	raw, err := pl.MarshalJSON()
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.gen++
	m := &Model{ID: id, PL: pl, Gen: r.gen, Raw: raw}
	r.models[id] = m
	dir := r.dir
	r.mu.Unlock()
	r.wrote(id, false)
	if dir != "" {
		if err := persist(dir, id, raw, m.Gen); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// PutAt applies a replicated model carrying an explicit generation.
// Conflicts resolve highest-wins: the write is applied only when gen exceeds
// the registered generation (ties broken by comparing the JSON wire forms,
// so two peers that disagree at the same generation still converge to the
// same winner). The registry's own counter is bumped to at least gen, so a
// later local Put cannot mint a generation the cluster has already passed.
// Returns whether the write was applied.
func (r *Registry) PutAt(id string, pl *fpm.PiecewiseLinear, gen uint64) (bool, error) {
	if !ValidID(id) {
		return false, fmt.Errorf("service: invalid model id %q", id)
	}
	if pl == nil {
		return false, errors.New("service: nil model")
	}
	if gen == 0 {
		return false, errors.New("service: replicated model needs a positive generation")
	}
	raw, err := pl.MarshalJSON()
	if err != nil {
		return false, err
	}
	r.mu.Lock()
	if r.gen < gen {
		r.gen = gen
	}
	sameGen := false
	if cur, ok := r.models[id]; ok {
		if gen < cur.Gen || (gen == cur.Gen && bytes.Compare(raw, cur.Raw) <= 0) {
			r.mu.Unlock()
			return false, nil
		}
		sameGen = gen == cur.Gen
	}
	r.models[id] = &Model{ID: id, PL: pl, Gen: gen, Raw: raw}
	dir := r.dir
	r.mu.Unlock()
	r.wrote(id, sameGen)
	if dir != "" {
		if err := persist(dir, id, raw, gen); err != nil {
			return true, err
		}
	}
	return true, nil
}

func (r *Registry) wrote(id string, sameGen bool) {
	if r.onWrite != nil {
		r.onWrite(id, sameGen)
	}
}

// Snapshot returns (id, generation) for every registered model, sorted by
// id. Peers exchange snapshots during anti-entropy sweeps to find models
// they are missing or hold at a stale generation.
func (r *Registry) Snapshot() []ModelInfo {
	r.mu.RLock()
	out := make([]ModelInfo, 0, len(r.models))
	for _, m := range r.models {
		out = append(out, ModelInfo{ID: m.ID, Gen: m.Gen})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Get returns the model registered under id, or ErrNotFound.
func (r *Registry) Get(id string) (*Model, error) {
	r.mu.RLock()
	m, ok := r.models[id]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return m, nil
}

// Delete removes id from the registry (and its persisted file, if any).
// Deleting an unknown id returns ErrNotFound.
func (r *Registry) Delete(id string) error {
	r.mu.Lock()
	_, ok := r.models[id]
	delete(r.models, id)
	dir := r.dir
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	r.wrote(id, false)
	if dir != "" {
		if err := os.Remove(filepath.Join(dir, id+".json")); err != nil && !os.IsNotExist(err) {
			return err
		}
		if err := os.Remove(filepath.Join(dir, id+".gen")); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// List returns the registered ids in sorted order.
func (r *Registry) List() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.models))
	for id := range r.models {
		out = append(out, id)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Len returns the number of registered models.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.models)
}

// Resolve maps ids to models, failing on the first unknown id.
func (r *Registry) Resolve(ids []string) ([]*Model, error) {
	out := make([]*Model, len(ids))
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i, id := range ids {
		m, ok := r.models[id]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
		}
		out[i] = m
	}
	return out, nil
}

// Load populates the registry from the persistence directory: every
// *.json file (the fpm JSON wire form, as Put persists and fpmbench -out
// writes) becomes a model named after the file. Returns the number of
// models loaded.
func (r *Registry) Load() (int, error) {
	if r.dir == "" {
		return 0, nil
	}
	entries, err := os.ReadDir(r.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	loaded := 0
	for _, e := range entries {
		name := e.Name()
		id, ok := strings.CutSuffix(name, ".json")
		if e.IsDir() || !ok || !ValidID(id) {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(r.dir, name))
		if err != nil {
			return loaded, err
		}
		pl := new(fpm.PiecewiseLinear)
		if err := pl.UnmarshalJSON(raw); err != nil {
			return loaded, fmt.Errorf("service: load %s: %w", name, err)
		}
		// A persisted generation sidecar (written by Put/PutAt) restores the
		// model's cluster-wide generation across a restart; without it the
		// model gets a fresh local generation as before.
		gen := loadGen(r.dir, id)
		r.mu.Lock()
		if gen == 0 {
			r.gen++
			gen = r.gen
		} else if r.gen < gen {
			r.gen = gen
		}
		r.models[id] = &Model{ID: id, PL: pl, Gen: gen, Raw: raw}
		r.mu.Unlock()
		loaded++
	}
	return loaded, nil
}

// loadGen reads the generation sidecar for id, returning 0 when absent or
// malformed (the caller assigns a fresh local generation).
func loadGen(dir, id string) uint64 {
	data, err := os.ReadFile(filepath.Join(dir, id+".gen"))
	if err != nil {
		return 0
	}
	gen, err := strconv.ParseUint(strings.TrimSpace(string(data)), 10, 64)
	if err != nil {
		return 0
	}
	return gen
}

// persist writes the model atomically (temp file + rename) so a crashed
// daemon never leaves a truncated model behind, plus a generation sidecar
// so a restarted daemon rejoins the cluster at the generation it left.
func persist(dir, id string, raw []byte, gen uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeAtomic(dir, id+".json", raw); err != nil {
		return err
	}
	return writeAtomic(dir, id+".gen", []byte(strconv.FormatUint(gen, 10)))
}

func writeAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, "."+name+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(dir, name))
}

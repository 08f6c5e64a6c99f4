// Package refine closes the feedback loop between serving and model
// building: observed (model, device, size, seconds) samples from live
// execution — shard timings from fpmd's job executor, or clients posting to
// fpmd's /v1/observe — are accumulated into size-bucketed
// statistical estimators, and once a bucket's mean is statistically reliable
// the affected knots of the registered functional performance model are
// rebuilt and re-published under a bumped generation.
//
// The paper builds FPMs offline and partitions against them; its own premise
// (speed is a function of problem size measured under real conditions)
// argues that served models should converge under live load. This follows
// the self-adaptable-algorithms direction (Lastovetsky et al.,
// arXiv:1109.3074) and the cross-machine model-transfer direction (Stevens &
// Klöckner, arXiv:1904.09538): a model benched on one host seeds serving
// elsewhere and is refined in place by what the traffic actually measures.
//
// The statistical machinery is internal/stats: each bucket drives a
// stats.Estimator with 3-MAD robust outlier rejection (with the
// mean-absolute-deviation fallback for quantized-clock batches) until the
// mean's confidence interval is tight enough. Rebuilds go through
// fpm.FromTimings over the reliable buckets, an epsilon-deduped merge onto
// the current model (fpm.MergeEps, so repeated refinement cannot accumulate
// near-duplicate knots), and a light fpm.Smooth pass.
package refine

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"fpmpart/internal/fpm"
	"fpmpart/internal/stats"
)

// Sample is one observed execution: a problem of Size units took Seconds.
type Sample struct {
	Size    float64
	Seconds float64
}

// Registry is the model store the refiner reads from and publishes into.
// internal/service's Server implements it over its generation-versioned
// registry (publish = Registry.PutAt at the current generation + 1, which
// invalidates dependent solution-cache entries by construction and feeds
// cluster replication). Implementations must be safe for concurrent use.
type Registry interface {
	// Current returns the registered model and its generation.
	Current(id string) (*fpm.PiecewiseLinear, uint64, error)
	// Publish stores a refined model under the given generation, returning
	// whether the write was applied (false when a concurrent writer already
	// advanced past gen — the refiner simply retries on a later batch).
	Publish(id string, pl *fpm.PiecewiseLinear, gen uint64) (bool, error)
}

// Reliability, bucketing and rebuild constants.
const (
	// confidence and relErr are the stats.Estimator reliability targets: a
	// bucket mean is reliable when its confidence-level interval has
	// relative half-width <= relErr.
	confidence = 0.95
	relErr     = 0.05
	// changeThreshold is the minimum relative shift of an already-published
	// bucket mean that re-arms a rebuild; below it, new samples confirming
	// the published knot do not burn generations.
	changeThreshold = relErr
	// bucketsPerOctave is the geometric size-bucket resolution: sizes within
	// a factor 2^(1/bucketsPerOctave) share a bucket (~9% wide).
	bucketsPerOctave = 8
	// maxBuckets bounds the buckets per model; samples that would create
	// more are dropped (counted in telemetry).
	maxBuckets = 512
	// mergeEps is the relative abscissa tolerance for merging rebuilt knots
	// over the current model (fpm.MergeEps): about half a bucket width, so a
	// bucket's drifting representative size keeps replacing its own knot
	// instead of accumulating neighbours.
	mergeEps = 0.04
	// smoothWindow is the fpm.Smooth window applied after the merge.
	smoothWindow = 1
)

// Config tunes the refiner. The zero value selects the documented defaults.
type Config struct {
	// MinSamples is the per-bucket floor before a bucket's mean may be
	// considered reliable. Default 8; minimum 2 (the underlying estimator
	// needs two observations, so a lower value could never publish).
	MinSamples int
	// MaxSamplesPerBucket bounds a bucket's sample window; when full the
	// bucket's estimator restarts (published state is retained), so memory
	// stays bounded under unbounded traffic while drift keeps being tracked.
	// Default 512.
	MaxSamplesPerBucket int
	// Cooldown is the minimum interval between published rebuilds of one
	// model, so bursty observe traffic cannot cause a generation-bump storm
	// (every bump invalidates cached solutions cluster-wide). Default 5s.
	Cooldown time.Duration
	// Now is the clock (injectable for tests). Default time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	// stats.NewEstimator clamps MinReps to 2, and the bucket window restarts
	// at MaxSamplesPerBucket samples — a window smaller than the effective
	// floor would restart before ever becoming reliable, so clamp here too.
	if c.MinSamples < 2 {
		c.MinSamples = 2
	}
	if c.MaxSamplesPerBucket <= 0 {
		c.MaxSamplesPerBucket = 512
	}
	if c.MaxSamplesPerBucket < c.MinSamples {
		c.MaxSamplesPerBucket = c.MinSamples
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Result reports what one observe batch did to one model.
type Result struct {
	// Accepted is the number of samples accumulated.
	Accepted int
	// Buckets and Reliable count the model's size buckets and how many are
	// currently statistically reliable.
	Buckets, Reliable int
	// Rebuilt reports whether this batch triggered a model rebuild, and
	// Applied whether the publish won (a concurrent writer can race ahead).
	Rebuilt, Applied bool
	// Generation is the generation the rebuild was published at (0 when no
	// rebuild happened).
	Generation uint64
	// Suppressed reports that a rebuild was due but held back by the
	// cooldown; a later batch will pick it up.
	Suppressed bool
}

// Refiner accumulates observed samples per model and republishes refined
// models through its Registry. Safe for concurrent use; observes for the
// same model are serialized so generation bumps are strictly increasing.
type Refiner struct {
	cfg Config
	reg Registry

	mu     sync.Mutex
	models map[string]*modelState
}

type modelState struct {
	mu          sync.Mutex
	buckets     map[int]*bucket
	lastPublish time.Time
	everPub     bool
}

type bucket struct {
	est   *stats.Estimator
	sizes *stats.Sample
	// reliable and mean cache est.Reliable() and, while reliable,
	// est.Mean(). Adding a sample (which also covers a window restart) marks
	// them stale, so a batch evaluates only the buckets it touched: with
	// Robust set, each evaluation sorts the window three times.
	stale    bool
	reliable bool
	mean     float64
	// published pins the bucket state at its last contribution to a
	// published model, so unchanged buckets do not re-arm rebuilds.
	published bool
	pubMean   float64
}

// New builds a refiner publishing into reg.
func New(reg Registry, cfg Config) (*Refiner, error) {
	if reg == nil {
		return nil, errors.New("refine: nil registry")
	}
	return &Refiner{cfg: cfg.withDefaults(), reg: reg, models: map[string]*modelState{}}, nil
}

// Config returns the effective (defaulted) configuration.
func (r *Refiner) Config() Config { return r.cfg }

// state returns the per-model accumulator, creating it on first use.
func (r *Refiner) state(id string) *modelState {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, ok := r.models[id]
	if !ok {
		st = &modelState{buckets: map[int]*bucket{}}
		r.models[id] = st
	}
	return st
}

// Forget drops the accumulated state for a model (call when the model is
// deleted from the registry).
func (r *Refiner) Forget(id string) {
	r.mu.Lock()
	delete(r.models, id)
	r.mu.Unlock()
}

// bucketIndex maps a size onto its geometric bucket.
func (r *Refiner) bucketIndex(size float64) int {
	return int(math.Floor(math.Log2(size) * bucketsPerOctave))
}

// Observe accumulates a batch of samples for one model and, when a bucket's
// mean has become reliable (or shifted beyond the change threshold since the
// last publish) and the cooldown allows, rebuilds the affected knots and
// publishes the refined model at generation+1.
//
// Samples must be positive and finite in both fields; the first invalid one
// fails the whole batch (callers expose this as a 400, not a partial write).
func (r *Refiner) Observe(id string, samples []Sample) (Result, error) {
	var out Result
	if len(samples) == 0 {
		return out, errors.New("refine: empty sample batch")
	}
	for i, s := range samples {
		if !(s.Size > 0) || math.IsInf(s.Size, 0) {
			return out, fmt.Errorf("refine: sample %d: invalid size %v", i, s.Size)
		}
		if !(s.Seconds > 0) || math.IsInf(s.Seconds, 0) {
			return out, fmt.Errorf("refine: sample %d: invalid seconds %v", i, s.Seconds)
		}
	}

	st := r.state(id)
	st.mu.Lock()
	defer st.mu.Unlock()

	for _, s := range samples {
		idx := r.bucketIndex(s.Size)
		b, ok := st.buckets[idx]
		if !ok {
			if len(st.buckets) >= maxBuckets {
				recordDropped(1)
				continue
			}
			b = &bucket{est: r.newEstimator(), sizes: &stats.Sample{}}
			st.buckets[idx] = b
		}
		if b.est.N() >= r.cfg.MaxSamplesPerBucket {
			// Window full: restart the estimator so drift keeps being
			// tracked with bounded memory. Published state is retained.
			b.est = r.newEstimator()
			b.sizes = &stats.Sample{}
		}
		b.est.Add(s.Seconds)
		b.sizes.Add(s.Size)
		b.stale = true
		out.Accepted++
	}
	recordSamples(out.Accepted)

	// A rebuild is due when some reliable bucket is "dirty": never published,
	// or drifted beyond the change threshold since its last publish.
	dirty := false
	for _, b := range st.buckets {
		ok, mean := b.verdict()
		if !ok {
			continue
		}
		out.Reliable++
		if !b.published {
			dirty = true
			continue
		}
		if rel := math.Abs(mean-b.pubMean) / b.pubMean; rel > changeThreshold {
			dirty = true
		}
	}
	out.Buckets = len(st.buckets)
	if !dirty {
		return out, nil
	}
	now := r.cfg.Now()
	if st.everPub && now.Sub(st.lastPublish) < r.cfg.Cooldown {
		out.Suppressed = true
		recordSuppressed()
		return out, nil
	}

	res, err := r.rebuildLocked(id, st, &out)
	if err != nil {
		return out, err
	}
	if res {
		st.lastPublish = now
		st.everPub = true
	}
	return out, nil
}

// verdict returns whether the bucket's mean is reliable and, if so, the
// mean, evaluating the estimator only when a sample arrived since the last
// call.
func (b *bucket) verdict() (bool, float64) {
	if b.stale {
		b.reliable = b.est.Reliable()
		b.mean = 0
		if b.reliable {
			b.mean = b.est.Mean()
		}
		b.stale = false
	}
	return b.reliable, b.mean
}

// newEstimator starts a bucket's robust sample window.
func (r *Refiner) newEstimator() *stats.Estimator {
	est := stats.NewEstimator(confidence, relErr, r.cfg.MinSamples, r.cfg.MaxSamplesPerBucket)
	est.Robust = true
	return est
}

// rebuildLocked rebuilds the model's reliable knots and publishes the merged
// result at generation+1. Caller holds st.mu, which serializes publishes per
// model: generations from this refiner are strictly increasing, so the
// solution cache can never see two different artifacts under one generation.
func (r *Refiner) rebuildLocked(id string, st *modelState, out *Result) (bool, error) {
	base, gen, err := r.reg.Current(id)
	if err != nil {
		return false, fmt.Errorf("refine: current model %q: %w", id, err)
	}
	var timings []fpm.TimeSample
	type pub struct {
		b    *bucket
		mean float64
	}
	var pubs []pub
	for _, b := range st.buckets {
		ok, mean := b.verdict()
		if !ok {
			continue
		}
		size := b.sizes.FilterOutliers(3).Mean()
		if !(size > 0) || !(mean > 0) {
			continue
		}
		timings = append(timings, fpm.TimeSample{Size: size, Seconds: mean})
		pubs = append(pubs, pub{b: b, mean: mean})
	}
	if len(timings) == 0 {
		return false, nil
	}
	partial, err := fpm.FromTimings(timings)
	if err != nil {
		return false, fmt.Errorf("refine: rebuild %q: %w", id, err)
	}
	merged, err := fpm.MergeEps(mergeEps, base, partial)
	if err != nil {
		return false, fmt.Errorf("refine: merge %q: %w", id, err)
	}
	smoothed, err := fpm.Smooth(merged, smoothWindow)
	if err != nil {
		return false, fmt.Errorf("refine: smooth %q: %w", id, err)
	}
	out.Rebuilt = true
	recordRebuild()
	applied, err := r.reg.Publish(id, smoothed, gen+1)
	if err != nil {
		recordPublish("error")
		return false, fmt.Errorf("refine: publish %q: %w", id, err)
	}
	if !applied {
		recordPublish("stale")
		return false, nil
	}
	recordPublish("applied")
	out.Applied = true
	out.Generation = gen + 1
	for _, p := range pubs {
		p.b.published = true
		p.b.pubMean = p.mean
	}
	return true, nil
}

package refine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"fpmpart/internal/fpm"
)

// fakeReg is an in-memory Registry with the same highest-wins publish
// contract as the service registry.
type fakeReg struct {
	mu        sync.Mutex
	pl        *fpm.PiecewiseLinear
	gen       uint64
	published int
	failNext  error
}

func newFakeReg(pl *fpm.PiecewiseLinear) *fakeReg { return &fakeReg{pl: pl, gen: 1} }

func (f *fakeReg) Current(id string) (*fpm.PiecewiseLinear, uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.pl == nil {
		return nil, 0, fmt.Errorf("no model %q", id)
	}
	return f.pl, f.gen, nil
}

func (f *fakeReg) Publish(id string, pl *fpm.PiecewiseLinear, gen uint64) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failNext != nil {
		err := f.failNext
		f.failNext = nil
		return false, err
	}
	if gen <= f.gen {
		return false, nil
	}
	f.pl, f.gen = pl, gen
	f.published++
	return true, nil
}

// testClock is an injectable clock for cooldown tests.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testConfig(clk *testClock) Config {
	return Config{
		MinSamples: 4,
		Cooldown:   5 * time.Second,
		Now:        clk.Now,
	}
}

// feed emits n identical observations (zero variance ⇒ the bucket converges
// as soon as MinSamples is met).
func feed(n int, size, seconds float64) []Sample {
	out := make([]Sample, n)
	for i := range out {
		out[i] = Sample{Size: size, Seconds: seconds}
	}
	return out
}

func TestObserveValidation(t *testing.T) {
	reg := newFakeReg(fpm.MustPiecewiseLinear([]fpm.Point{{Size: 100, Speed: 100}}))
	r, err := New(reg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		samples []Sample
	}{
		{"empty", nil},
		{"zero size", []Sample{{Size: 0, Seconds: 1}}},
		{"negative size", []Sample{{Size: -5, Seconds: 1}}},
		{"NaN size", []Sample{{Size: math.NaN(), Seconds: 1}}},
		{"inf size", []Sample{{Size: math.Inf(1), Seconds: 1}}},
		{"zero seconds", []Sample{{Size: 10, Seconds: 0}}},
		{"negative seconds", []Sample{{Size: 10, Seconds: -1}}},
		{"NaN seconds", []Sample{{Size: 10, Seconds: math.NaN()}}},
		{"inf seconds", []Sample{{Size: 10, Seconds: math.Inf(1)}}},
	}
	for _, tc := range cases {
		if _, err := r.Observe("m", tc.samples); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	// A valid sample mixed with an invalid one fails the whole batch.
	res, err := r.Observe("m", []Sample{{Size: 10, Seconds: 1}, {Size: 10, Seconds: math.NaN()}})
	if err == nil {
		t.Error("mixed batch should fail")
	}
	if res.Accepted != 0 {
		t.Errorf("failed batch accepted %d samples", res.Accepted)
	}
}

func TestRebuildPublishesNextGeneration(t *testing.T) {
	// Mis-seeded base: claims speed 100 everywhere. Truth: speed 1000.
	base := fpm.MustPiecewiseLinear([]fpm.Point{{Size: 1024, Speed: 100}})
	reg := newFakeReg(base)
	clk := &testClock{t: time.Unix(1000, 0)}
	r, err := New(reg, testConfig(clk))
	if err != nil {
		t.Fatal(err)
	}

	truth := func(size float64) float64 { return size / 1000 } // seconds
	var batch []Sample
	for _, size := range []float64{256, 1024, 4096} {
		batch = append(batch, feed(4, size, truth(size))...)
	}
	res, err := r.Observe("m", batch)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rebuilt || !res.Applied {
		t.Fatalf("expected rebuild+publish, got %+v", res)
	}
	if res.Generation != 2 {
		t.Errorf("published generation %d, want 2 (base gen + 1)", res.Generation)
	}
	if reg.gen != 2 || reg.published != 1 {
		t.Fatalf("registry gen %d published %d", reg.gen, reg.published)
	}

	// The refined model predicts the observed sizes far better than the seed.
	ref := []fpm.TimeSample{
		{Size: 256, Seconds: truth(256)},
		{Size: 1024, Seconds: truth(1024)},
		{Size: 4096, Seconds: truth(4096)},
	}
	seedErr, _, err := fpm.Accuracy(base, ref)
	if err != nil {
		t.Fatal(err)
	}
	refErr, _, err := fpm.Accuracy(reg.pl, ref)
	if err != nil {
		t.Fatal(err)
	}
	if refErr >= seedErr/5 {
		t.Errorf("refined mean rel err %.3f vs seed %.3f: want >=5x improvement", refErr, seedErr)
	}
	if inv := fpm.Diagnose(reg.pl); len(inv) > 0 {
		t.Errorf("refined model has time inversions: %v", inv)
	}
}

func TestCooldownSuppressesGenerationStorms(t *testing.T) {
	base := fpm.MustPiecewiseLinear([]fpm.Point{{Size: 1024, Speed: 100}})
	reg := newFakeReg(base)
	clk := &testClock{t: time.Unix(1000, 0)}
	r, err := New(reg, testConfig(clk))
	if err != nil {
		t.Fatal(err)
	}

	res, err := r.Observe("m", feed(4, 1024, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Applied || res.Generation != 2 {
		t.Fatalf("first publish: %+v", res)
	}

	// A strongly shifted mean at another size is dirty, but within the
	// cooldown the rebuild must be held back.
	res, err = r.Observe("m", feed(4, 4096, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebuilt || !res.Suppressed {
		t.Fatalf("within cooldown: %+v", res)
	}
	if reg.gen != 2 {
		t.Fatalf("generation bumped during cooldown: %d", reg.gen)
	}

	// After the cooldown the held-back rebuild goes out on the next batch.
	clk.Advance(6 * time.Second)
	res, err = r.Observe("m", feed(1, 4096, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Applied || res.Generation != 3 {
		t.Fatalf("post-cooldown publish: %+v", res)
	}
}

func TestChangeThresholdPreventsRepublish(t *testing.T) {
	base := fpm.MustPiecewiseLinear([]fpm.Point{{Size: 1024, Speed: 100}})
	reg := newFakeReg(base)
	clk := &testClock{t: time.Unix(1000, 0)}
	r, err := New(reg, testConfig(clk))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Observe("m", feed(4, 1024, 1.0)); err != nil {
		t.Fatal(err)
	}
	if reg.published != 1 {
		t.Fatalf("published %d", reg.published)
	}

	// More traffic confirming the published mean (±1%, well under the 5%
	// change threshold) must not burn generations, even long after cooldown.
	for i := 0; i < 10; i++ {
		clk.Advance(time.Minute)
		res, err := r.Observe("m", []Sample{{Size: 1024, Seconds: 1.0 + 0.01*float64(i%2)}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Rebuilt || res.Suppressed {
			t.Fatalf("confirming traffic triggered rebuild at i=%d: %+v", i, res)
		}
	}
	if reg.published != 1 || reg.gen != 2 {
		t.Errorf("confirming traffic republished: published %d gen %d", reg.published, reg.gen)
	}

	// A real shift (2x slower) re-arms the rebuild.
	clk.Advance(time.Minute)
	var res Result
	for i := 0; i < 2; i++ {
		var err error
		res, err = r.Observe("m", feed(256, 1024, 2.0))
		if err != nil {
			t.Fatal(err)
		}
		if res.Applied {
			break
		}
		clk.Advance(time.Minute)
	}
	if !res.Applied {
		t.Fatalf("shifted mean did not republish: %+v", res)
	}
}

func TestStalePublishRetriesLater(t *testing.T) {
	base := fpm.MustPiecewiseLinear([]fpm.Point{{Size: 1024, Speed: 100}})
	reg := newFakeReg(base)
	clk := &testClock{t: time.Unix(1000, 0)}
	r, err := New(reg, testConfig(clk))
	if err != nil {
		t.Fatal(err)
	}
	// A concurrent writer races the registry forward between Current and
	// Publish: the refiner's write is rejected, not an error, and the next
	// batch retries against the new base.
	reg.mu.Lock()
	reg.gen = 5
	reg.mu.Unlock()
	res, err := r.Observe("m", feed(4, 1024, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Rebuilt || !res.Applied || res.Generation != 6 {
		t.Fatalf("rebuild against advanced gen: %+v", res)
	}
}

func TestMaxBucketsDropsOverflow(t *testing.T) {
	reg := newFakeReg(fpm.MustPiecewiseLinear([]fpm.Point{{Size: 100, Speed: 100}}))
	clk := &testClock{t: time.Unix(1000, 0)}
	r, err := New(reg, testConfig(clk))
	if err != nil {
		t.Fatal(err)
	}
	// One sample in the middle of each of maxBuckets+8 consecutive buckets:
	// the first maxBuckets are kept, the rest dropped.
	var batch []Sample
	for i := 0; i < maxBuckets+8; i++ {
		batch = append(batch, Sample{Size: math.Exp2((float64(i) + 0.5) / bucketsPerOctave), Seconds: 1})
	}
	res, err := r.Observe("m", batch)
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted != maxBuckets || res.Buckets != maxBuckets {
		t.Errorf("accepted %d across %d buckets, want %d across %d", res.Accepted, res.Buckets, maxBuckets, maxBuckets)
	}
}

func TestWindowRestartBoundsMemory(t *testing.T) {
	reg := newFakeReg(fpm.MustPiecewiseLinear([]fpm.Point{{Size: 1024, Speed: 100}}))
	clk := &testClock{t: time.Unix(1000, 0)}
	cfg := testConfig(clk)
	cfg.MaxSamplesPerBucket = 8
	r, err := New(reg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		clk.Advance(time.Minute)
		if _, err := r.Observe("m", feed(8, 1024, 1.0)); err != nil {
			t.Fatal(err)
		}
	}
	st := r.state("m")
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, b := range st.buckets {
		if n := b.est.N(); n > cfg.MaxSamplesPerBucket {
			t.Errorf("bucket window grew to %d > %d", n, cfg.MaxSamplesPerBucket)
		}
	}
}

func TestForgetDropsState(t *testing.T) {
	reg := newFakeReg(fpm.MustPiecewiseLinear([]fpm.Point{{Size: 1024, Speed: 100}}))
	r, err := New(reg, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Observe("m", feed(2, 1024, 1.0)); err != nil {
		t.Fatal(err)
	}
	r.Forget("m")
	r.mu.Lock()
	_, ok := r.models["m"]
	r.mu.Unlock()
	if ok {
		t.Error("Forget left model state behind")
	}
}

func TestConcurrentObserve(t *testing.T) {
	base := fpm.MustPiecewiseLinear([]fpm.Point{{Size: 1024, Speed: 100}})
	reg := newFakeReg(base)
	r, err := New(reg, Config{MinSamples: 4, Cooldown: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			units := 256 << (g % 4)
			size := float64(units)
			for i := 0; i < 20; i++ {
				if _, err := r.Observe("m", feed(2, size, size/1000)); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Generations from the serialized publisher are strictly increasing; the
	// final model must be inversion-free.
	if inv := fpm.Diagnose(reg.pl); len(inv) > 0 {
		t.Errorf("concurrent refinement produced inversions: %v", inv)
	}
	if reg.gen < 2 {
		t.Errorf("no publish happened: gen %d", reg.gen)
	}
}

// TestMinSamplesClampedToEstimatorFloor: stats.NewEstimator silently raises
// MinReps below 2 to 2, and the bucket window restarts once it holds
// MaxSamplesPerBucket samples — so a config asking for single-sample buckets
// used to restart the window before reliability was ever reachable and could
// never publish. withDefaults must clamp MinSamples (and therefore the
// window) to the estimator's floor instead.
func TestMinSamplesClampedToEstimatorFloor(t *testing.T) {
	clk := &testClock{t: time.Unix(0, 0)}
	reg := newFakeReg(fpm.MustPiecewiseLinear([]fpm.Point{{Size: 1, Speed: 100}, {Size: 4096, Speed: 100}}))
	r, err := New(reg, Config{MinSamples: 1, MaxSamplesPerBucket: 1, Cooldown: time.Second, Now: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	if cfg := r.Config(); cfg.MinSamples != 2 || cfg.MaxSamplesPerBucket != 2 {
		t.Fatalf("effective min=%d max=%d, want both clamped to 2", cfg.MinSamples, cfg.MaxSamplesPerBucket)
	}
	if res, err := r.Observe("dev", feed(1, 96, 0.02)); err != nil || res.Rebuilt {
		t.Fatalf("one sample should not rebuild yet: %+v, %v", res, err)
	}
	clk.Advance(2 * time.Second)
	res, err := r.Observe("dev", feed(1, 96, 0.02))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Applied || reg.gen != 2 {
		t.Fatalf("second sample filled the clamped window but did not publish: %+v (gen %d)", res, reg.gen)
	}
}

// recordingReg is a fakeReg that keeps every applied publish.
type recordingReg struct {
	*fakeReg
	log []string
}

func (r *recordingReg) Publish(id string, pl *fpm.PiecewiseLinear, gen uint64) (bool, error) {
	applied, err := r.fakeReg.Publish(id, pl, gen)
	if applied {
		raw, _ := pl.MarshalJSON()
		r.log = append(r.log, fmt.Sprintf("gen %d: %s", gen, raw))
	}
	return applied, err
}

// A bucket's cached verdict and mean equal a fresh evaluation after every
// batch, window restarts included, and the cache changes nothing a refiner
// publishes: a refiner that re-evaluates every bucket on every batch, as
// Observe once did, publishes the same generations and bytes from the same
// seeded stream.
func TestBucketVerdictCacheMatchesFreshEvaluation(t *testing.T) {
	base := fpm.MustPiecewiseLinear([]fpm.Point{{Size: 64, Speed: 100}, {Size: 8192, Speed: 300}})
	newRefiner := func() (*Refiner, *recordingReg, *testClock) {
		reg := &recordingReg{fakeReg: newFakeReg(base)}
		clk := &testClock{t: time.Unix(1000, 0)}
		cfg := testConfig(clk)
		cfg.MaxSamplesPerBucket = 12 // restart windows often
		r, err := New(reg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r, reg, clk
	}
	cached, cachedReg, cachedClk := newRefiner()
	fresh, freshReg, freshClk := newRefiner()
	rng := rand.New(rand.NewSource(7))
	sizes := []float64{100, 300, 900, 2700, 8100}
	restarts := 0
	for batch := 0; batch < 300; batch++ {
		var samples []Sample
		for k := 1 + rng.Intn(6); k > 0; k-- {
			size := sizes[rng.Intn(len(sizes))] * (1 + 0.05*rng.Float64())
			speed := 200 + 100*math.Sin(size/1000) + float64(batch)
			samples = append(samples, Sample{Size: size, Seconds: size / speed * (1 + 0.03*rng.NormFloat64())})
		}
		step := time.Duration(rng.Intn(4)) * time.Second
		cachedClk.Advance(step)
		freshClk.Advance(step)

		before := map[*bucket]int{}
		st := cached.state("m")
		st.mu.Lock()
		for _, b := range st.buckets {
			before[b] = b.est.N()
		}
		st.mu.Unlock()
		fst := fresh.state("m")
		fst.mu.Lock()
		for _, b := range fst.buckets {
			b.stale = true
		}
		fst.mu.Unlock()

		got, err := cached.Observe("m", samples)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Observe("m", samples)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("batch %d: cached refiner reported %+v, fresh one %+v", batch, got, want)
		}
		st.mu.Lock()
		for _, b := range st.buckets {
			if n, ok := before[b]; ok && b.est.N() < n {
				restarts++
			}
			if b.stale {
				t.Fatalf("batch %d: a bucket is still stale after Observe", batch)
			}
			if reliable := b.est.Reliable(); b.reliable != reliable {
				t.Fatalf("batch %d: cached verdict %v, fresh %v", batch, b.reliable, reliable)
			}
			if b.reliable && b.mean != b.est.Mean() {
				t.Fatalf("batch %d: cached mean %v, fresh %v", batch, b.mean, b.est.Mean())
			}
		}
		st.mu.Unlock()
	}
	if restarts == 0 {
		t.Fatal("no bucket window restarted: the stream does not exercise restarts")
	}
	if len(cachedReg.log) < 3 {
		t.Fatalf("only %d publishes: the stream does not exercise rebuilds", len(cachedReg.log))
	}
	if !slices.Equal(cachedReg.log, freshReg.log) {
		t.Fatalf("publishes differ:\ncached %q\nfresh  %q", cachedReg.log, freshReg.log)
	}
	t.Logf("%d batches, %d window restarts, %d publishes", 300, restarts, len(cachedReg.log))
}

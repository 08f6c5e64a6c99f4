package workerd

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"fpmpart/internal/blas"
	"fpmpart/internal/faults"
	"fpmpart/internal/fpm"
	"fpmpart/internal/matrix"
	"fpmpart/internal/refine"
)

// constModel builds a flat FPM at the given speed (rows/second).
func constModel(t *testing.T, speed float64) *fpm.PiecewiseLinear {
	t.Helper()
	pl, err := fpm.NewPiecewiseLinear([]fpm.Point{
		{Size: 1, Speed: speed}, {Size: 1 << 20, Speed: speed},
	})
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// mapModels is an in-memory ModelSink + ModelSource for executor tests.
type mapModels struct {
	mu     sync.Mutex
	models map[string]*fpm.PiecewiseLinear
	gens   map[string]uint64
}

func newMapModels() *mapModels {
	return &mapModels{models: map[string]*fpm.PiecewiseLinear{}, gens: map[string]uint64{}}
}

func (m *mapModels) PutWorkerModel(name string, pl *fpm.PiecewiseLinear) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.gens[name]++
	m.models[name] = pl
	return m.gens[name], nil
}

func (m *mapModels) WorkerModel(name string) (*fpm.PiecewiseLinear, uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	pl, ok := m.models[name]
	if !ok {
		return nil, 0, &modelMissingError{name}
	}
	return pl, m.gens[name], nil
}

type modelMissingError struct{ name string }

func (e *modelMissingError) Error() string { return "no model for " + e.name }

// recordObserver captures observed shard samples.
type recordObserver struct {
	mu      sync.Mutex
	samples map[string][]refine.Sample
}

func (o *recordObserver) ObserveWorker(name string, samples []refine.Sample) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.samples == nil {
		o.samples = map[string][]refine.Sample{}
	}
	o.samples[name] = append(o.samples[name], samples...)
}

// startWorker serves one Worker over httptest and registers it in the pool.
func startWorker(t *testing.T, pool *Pool, models *mapModels, name string, speed float64, inj *faults.Injector) (*httptest.Server, *Worker) {
	t.Helper()
	w, err := NewWorker(WorkerOptions{Name: name, Workers: 1, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	raw, err := constModel(t, speed).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Register(context.Background(), Registration{
		Name: name, URL: srv.URL, Cores: 1, Model: raw,
	}); err != nil {
		t.Fatalf("register %s: %v", name, err)
	}
	_ = models // registered through the pool's sink
	return srv, w
}

func TestShardRequestValidate(t *testing.T) {
	bad := []ShardRequest{
		{Rows: 0, K: 10, N: 10},
		{Rows: 10, K: 0, N: 10, Row1: 5},
		{Rows: 10, K: 10, N: 10, Row0: 5, Row1: 5},
		{Rows: 10, K: 10, N: 10, Row0: 0, Row1: 11},
		{Rows: 1 << 20, K: 1 << 20, N: 1, Row0: 0, Row1: 1},
		{Rows: 1 << 62, K: 1 << 62, N: 1 << 62, Row0: 0, Row1: 1},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("case %d: expected error, got nil", i)
		}
	}
	ok := ShardRequest{Rows: 10, K: 4, N: 4, Row0: 2, Row1: 8, Seed: 1}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}

	// On the wire, a body the worker cannot run exactly as written is a 400:
	// shards are GEMM only, so a job kind or any other unknown field is
	// rejected rather than ignored.
	w, err := NewWorker(WorkerOptions{Name: "v", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	stencil := `{"kind":"stencil","iters":3,"rows":10,"k":4,"n":4,"row0":0,"row1":5}`
	rec := httptest.NewRecorder()
	w.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, ShardPath, strings.NewReader(stencil)))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("shard with a job kind: status %d, want 400: %s", rec.Code, rec.Body)
	}
}

func TestGemmShardDeterminism(t *testing.T) {
	req := &ShardRequest{Job: "t", Seed: 7, Rows: 96, K: 32, N: 48, Row0: 16, Row1: 64}
	a, _, err := executeGemm(req, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := executeGemm(req, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rows != 48 || a.Cols != 48 {
		t.Fatalf("shard returned a %dx%d band, want 48x48", a.Rows, a.Cols)
	}
	if !bytes.Equal(encodeBand(a), encodeBand(b)) {
		t.Fatal("gemm shard bytes differ between 1 and 4 kernel workers")
	}
	if bandChecksum(a) != bandChecksum(b) {
		t.Fatal("checksums differ")
	}

	// The band equals the same rows of C computed from whole operands.
	fullA, fullB := matrix.MustNew(req.Rows, req.K), matrix.MustNew(req.K, req.N)
	fullA.FillRandom(req.Seed)
	fullB.FillRandom(req.Seed + 1)
	av, err := fullA.View(req.Row0, 0, req.Row1-req.Row0, req.K)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.MustNew(req.Row1-req.Row0, req.N)
	if err := blas.GemmPacked(1, av, fullB, 0, want, blas.DefaultConfig, 1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBand(a), encodeBand(want)) {
		t.Fatal("band-only shard differs from the same rows of the whole product")
	}
}

func TestBandEncodeDecodeRoundtrip(t *testing.T) {
	req := &ShardRequest{Job: "t", Seed: 3, Rows: 20, K: 8, N: 10, Row0: 5, Row1: 15}
	c, _, err := executeGemm(req, 1)
	if err != nil {
		t.Fatal(err)
	}
	raw := encodeBand(c)
	if bandChecksum(c) != checksumBytes(raw) {
		t.Fatal("row-by-row checksum differs from the checksum of the encoded band")
	}

	// A strided view of the band: rows 2..5, columns 1..7, a pinned 1.0 at
	// its origin. The wire stays row-major float32 little-endian.
	v, err := c.View(2, 1, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	v.Set(0, 0, 1)
	rawV := encodeBand(v)
	if got, want := rawV[:4], []byte{0x00, 0x00, 0x80, 0x3f}; !bytes.Equal(got, want) {
		t.Fatalf("1.0 encodes as % x, want % x", got, want)
	}
	if bandChecksum(v) != checksumBytes(rawV) {
		t.Fatal("strided view: row-by-row checksum differs from the checksum of the encoded band")
	}
	// The big-endian fallback writes the same bytes as the little-endian path.
	for i := 0; i < v.Rows; i++ {
		row := v.Data[i*v.Stride : i*v.Stride+v.Cols]
		enc := make([]byte, 4*len(row))
		encodeRow(enc, row)
		if !bytes.Equal(enc, rawV[i*len(enc):(i+1)*len(enc)]) {
			t.Fatalf("row %d: encodeRow differs from the wire bytes", i)
		}
	}
}

func TestSelfCalibrate(t *testing.T) {
	pl, err := SelfCalibrate([]int{64, 16, 32}, 32, 32, 1)
	if err != nil {
		t.Fatal(err)
	}
	pts := pl.Points()
	if len(pts) == 0 {
		t.Fatal("no calibration points")
	}
	for i, p := range pts {
		if p.Speed <= 0 {
			t.Fatalf("point %d: non-positive speed %v", i, p.Speed)
		}
		if i > 0 && pts[i].Size <= pts[i-1].Size {
			t.Fatalf("sizes not ascending at %d", i)
		}
	}
	if _, err := SelfCalibrate(nil, 32, 32, 1); err == nil {
		t.Fatal("expected error for empty bands")
	}
	if _, err := SelfCalibrate([]int{0}, 32, 32, 1); err == nil {
		t.Fatal("expected error for zero band")
	}
}

// Registration proves the advertised URL answers and measures nothing else:
// one GET /healthz, no payload sent to an address a registration names. A
// worker that answers anything but 200 is not registered.
func TestRegisterProbesReachabilityOnly(t *testing.T) {
	type hit struct {
		method, path string
		bytes        int64
	}
	var mu sync.Mutex
	var hits []hit
	status := http.StatusOK
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		n, _ := io.Copy(io.Discard, r.Body)
		mu.Lock()
		hits = append(hits, hit{r.Method, r.URL.Path, n})
		code := status
		mu.Unlock()
		rw.WriteHeader(code)
	}))
	defer srv.Close()

	raw, err := constModel(t, 100).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(newMapModels(), PoolOptions{TTL: time.Minute})
	reg := Registration{Name: "w1", URL: srv.URL + "/", Cores: 1, Model: raw}
	if _, err := pool.Register(context.Background(), reg); err != nil {
		t.Fatalf("register: %v", err)
	}
	mu.Lock()
	if want := []hit{{http.MethodGet, "/healthz", 0}}; !reflect.DeepEqual(hits, want) {
		t.Errorf("registration sent %+v, want exactly %+v", hits, want)
	}
	status = http.StatusServiceUnavailable
	mu.Unlock()

	reg.Name = "w2"
	if _, err := pool.Register(context.Background(), reg); err == nil {
		t.Error("worker answering 503 on /healthz was registered")
	}
	if _, ok := pool.Get("w2"); ok {
		t.Error("failed registration left a pool entry")
	}
}

func TestPoolRegisterHeartbeatExpire(t *testing.T) {
	models := newMapModels()
	pool := NewPool(models, PoolOptions{TTL: 200 * time.Millisecond})
	pool.Start()
	defer pool.Stop()

	startWorker(t, pool, models, "w1", 100, nil)
	info, ok := pool.Get("w1")
	if !ok || !info.Alive {
		t.Fatalf("w1 should be alive after registration: %+v", info)
	}
	if _, _, err := models.WorkerModel("w1"); err != nil {
		t.Fatalf("registration did not publish the model: %v", err)
	}

	// No heartbeats: the janitor must expire the worker.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if info, _ = pool.Get("w1"); !info.Alive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never expired without heartbeats")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// A heartbeat revives it.
	if !pool.Heartbeat("w1") {
		t.Fatal("heartbeat for known worker returned false")
	}
	if info, _ = pool.Get("w1"); !info.Alive {
		t.Fatal("heartbeat did not revive the worker")
	}
	if pool.Heartbeat("ghost") {
		t.Fatal("heartbeat for unknown worker returned true")
	}
	if !pool.Remove("w1") || pool.Remove("w1") {
		t.Fatal("remove semantics broken")
	}
}

func TestExecuteVerifiedBitExact(t *testing.T) {
	models := newMapModels()
	pool := NewPool(models, PoolOptions{TTL: time.Minute})
	startWorker(t, pool, models, "fast", 400, nil)
	startWorker(t, pool, models, "slow", 100, nil)

	exec := NewExecutor(pool, models, nil, ExecutorOptions{})
	rep, err := exec.Execute(context.Background(), ExecuteRequest{
		Rows: 256, K: 48, N: 64, Seed: 11, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified || !rep.BitExact {
		t.Fatalf("expected bit-exact verified result, got verified=%t bitExact=%t maxDiff=%v",
			rep.Verified, rep.BitExact, rep.MaxAbsDiff)
	}
	if rep.Checksum == 0 {
		t.Fatal("checksum not reported")
	}
	if len(rep.Detail) != 1 {
		t.Fatalf("want 1 round report, got %d", len(rep.Detail))
	}
	// FPM proportionality: the 4x-faster model gets the (strictly) larger
	// share of a 256-row job.
	var fastU, slowU int
	for _, s := range rep.Detail[0].Shards {
		switch s.Worker {
		case "fast":
			fastU += s.Units
		case "slow":
			slowU += s.Units
		}
	}
	if fastU <= slowU {
		t.Fatalf("fpm gave fast=%d rows, slow=%d rows; want fast > slow", fastU, slowU)
	}
	if fastU+slowU != 256 {
		t.Fatalf("shares cover %d of 256 rows", fastU+slowU)
	}
}

// A worker that returns one element negated, under a checksum that matches
// what it sent, passes the wire checks; the verify replay must catch it and
// report the flip's size.
func TestVerifyDetectsCorruptBand(t *testing.T) {
	models := newMapModels()
	pool := NewPool(models, PoolOptions{TTL: time.Minute})
	startWorker(t, pool, models, "honest", 100, nil)

	w, err := NewWorker(WorkerOptions{Name: "liar", Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	var (
		mu   sync.Mutex
		flip float64 // |negated - original| of the corrupted element
	)
	h := w.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path != ShardPath {
			h.ServeHTTP(rw, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		var resp ShardResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Result == nil {
			rw.WriteHeader(rec.Code)
			_, _ = rw.Write(rec.Body.Bytes())
			return
		}
		p := resp.Result[4*(n+5):] // row 1, column 5 of the band
		v := math.Float32frombits(binary.LittleEndian.Uint32(p))
		binary.LittleEndian.PutUint32(p, math.Float32bits(-v))
		mu.Lock()
		flip = 2 * math.Abs(float64(v))
		mu.Unlock()
		resp.Checksum = checksumBytes(resp.Result)
		_ = json.NewEncoder(rw).Encode(&resp)
	}))
	t.Cleanup(srv.Close)
	raw, err := constModel(t, 100).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Register(context.Background(), Registration{
		Name: "liar", URL: srv.URL, Cores: 1, Model: raw,
	}); err != nil {
		t.Fatal(err)
	}

	exec := NewExecutor(pool, models, nil, ExecutorOptions{})
	rep, err := exec.Execute(context.Background(), ExecuteRequest{
		Rows: 40, K: 24, N: n, Seed: 5, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified || rep.BitExact {
		t.Fatalf("corrupt band: verified=%t bitExact=%t, want verified and not bit-exact", rep.Verified, rep.BitExact)
	}
	mu.Lock()
	defer mu.Unlock()
	if flip == 0 || rep.MaxAbsDiff != flip {
		t.Fatalf("max abs diff %v, want the flip %v", rep.MaxAbsDiff, flip)
	}
}

func TestExecuteEvenSplit(t *testing.T) {
	models := newMapModels()
	pool := NewPool(models, PoolOptions{TTL: time.Minute})
	startWorker(t, pool, models, "a", 400, nil)
	startWorker(t, pool, models, "b", 100, nil)

	exec := NewExecutor(pool, models, nil, ExecutorOptions{})
	rep, err := exec.Execute(context.Background(), ExecuteRequest{
		Rows: 101, K: 32, N: 32, Partition: PartitionEven, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	units := map[string]int{}
	for _, s := range rep.Detail[0].Shards {
		units[s.Worker] += s.Units
	}
	if d := units["a"] - units["b"]; d < -1 || d > 1 {
		t.Fatalf("even split uneven: %v", units)
	}
	if !rep.BitExact {
		t.Fatal("even-split result not bit-exact")
	}
}

func TestExecuteRejectsBadRequests(t *testing.T) {
	models := newMapModels()
	pool := NewPool(models, PoolOptions{TTL: time.Minute})
	exec := NewExecutor(pool, models, nil, ExecutorOptions{})
	cases := []ExecuteRequest{
		{Rows: 0},
		{Rows: 10, Partition: "zigzag"},
		{Rows: 10, Rounds: 20000},
		{Rows: 1 << 20, K: 1 << 20, N: 1},
		{Rows: 1 << 15}, // N and K default to Rows: 2^30-element operands
	}
	for i, req := range cases {
		// Rejected by normalize itself, not only for want of workers.
		if err := req.normalize(); err == nil {
			t.Errorf("case %d: normalize accepted %+v", i, req)
		}
		if _, err := exec.Execute(context.Background(), req); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
	// No workers registered at all.
	if _, err := exec.Execute(context.Background(), ExecuteRequest{Rows: 10}); err == nil {
		t.Fatal("expected no-workers error")
	}
	// Unknown worker subset.
	startWorker(t, pool, models, "real", 100, nil)
	if _, err := exec.Execute(context.Background(), ExecuteRequest{Rows: 10, Workers: []string{"ghost"}}); err == nil {
		t.Fatal("expected unknown-worker error")
	}
}

// TestExecuteWorkerDeathMidJob is the recovery contract: a worker that dies
// between shard dispatch and completion (its fault plan severs the
// connection mid-response) must be marked dead, its band re-partitioned
// among the survivors, and the gathered result must still be bit-identical
// to the local kernel replay.
func TestExecuteWorkerDeathMidJob(t *testing.T) {
	models := newMapModels()
	pool := NewPool(models, PoolOptions{TTL: time.Minute})
	startWorker(t, pool, models, "ok1", 200, nil)
	startWorker(t, pool, models, "ok2", 200, nil)

	// The doomed worker crashes on its first shard (round 0). Its CrashFn
	// severs every open connection, so the executor sees a transport error
	// on an in-flight request — exactly what a process kill looks like.
	spec, err := faults.ParseSpec("crash:dev=0,iter=0")
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.NewInjector(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(WorkerOptions{Name: "doomed", Workers: 1, Faults: inj})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(w.Handler())
	t.Cleanup(srv.Close)
	w.opts.CrashFn = func() { srv.CloseClientConnections() }
	raw, err := constModel(t, 200).MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pool.Register(context.Background(), Registration{
		Name: "doomed", URL: srv.URL, Cores: 1, Model: raw,
	}); err != nil {
		t.Fatal(err)
	}

	obs := &recordObserver{}
	exec := NewExecutor(pool, models, obs, ExecutorOptions{})
	rep, err := exec.Execute(context.Background(), ExecuteRequest{
		Rows: 300, K: 48, N: 64, Seed: 5, Verify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Deaths) != 1 || rep.Deaths[0] != "doomed" {
		t.Fatalf("deaths = %v, want [doomed]", rep.Deaths)
	}
	if rep.Detail[0].Repartitions == 0 {
		t.Fatal("no repartition recorded after the death")
	}
	if !rep.BitExact {
		t.Fatalf("post-recovery result not bit-exact: maxDiff=%v", rep.MaxAbsDiff)
	}
	if info, _ := pool.Get("doomed"); info.Alive {
		t.Fatal("dead worker still marked alive")
	}
	if info, _ := pool.Get("doomed"); info.Failures == 0 {
		t.Fatal("failure not counted against the dead worker")
	}
	// Survivors' timings were observed; the dead worker contributed none.
	obs.mu.Lock()
	defer obs.mu.Unlock()
	if len(obs.samples["ok1"]) == 0 || len(obs.samples["ok2"]) == 0 {
		t.Fatalf("survivor samples missing: %v", obs.samples)
	}
	if len(obs.samples["doomed"]) != 0 {
		t.Fatal("dead worker's failed shard must not feed the refiner")
	}
}

// TestExecuteAllWorkersDead: when every worker dies the job errors with a
// partial report rather than hanging or panicking.
func TestExecuteAllWorkersDead(t *testing.T) {
	models := newMapModels()
	pool := NewPool(models, PoolOptions{TTL: time.Minute})
	spec, _ := faults.ParseSpec("crash:dev=0,iter=0")
	for _, name := range []string{"d1", "d2"} {
		inj, err := faults.NewInjector(spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		w, err := NewWorker(WorkerOptions{Name: name, Workers: 1, Faults: inj})
		if err != nil {
			t.Fatal(err)
		}
		srv := httptest.NewServer(w.Handler())
		t.Cleanup(srv.Close)
		w.opts.CrashFn = func() { srv.CloseClientConnections() }
		raw, _ := constModel(t, 100).MarshalJSON()
		if _, err := pool.Register(context.Background(), Registration{
			Name: name, URL: srv.URL, Cores: 1, Model: raw,
		}); err != nil {
			t.Fatal(err)
		}
	}
	exec := NewExecutor(pool, models, nil, ExecutorOptions{})
	_, err := exec.Execute(context.Background(), ExecuteRequest{Rows: 64, K: 16, N: 16})
	if err == nil {
		t.Fatal("expected failure when every worker dies")
	}
}

// TestExecuteMultiRoundGenerations: the executor resolves models fresh each
// round, so a model republished between rounds shows up as a generation
// bump in the round reports — the hook online refinement acts through.
func TestExecuteMultiRoundGenerations(t *testing.T) {
	models := newMapModels()
	pool := NewPool(models, PoolOptions{TTL: time.Minute})
	startWorker(t, pool, models, "w1", 100, nil)
	startWorker(t, pool, models, "w2", 100, nil)

	// bumper republishes w1's model after every observed round.
	bumper := &genBumper{models: models, t: t}
	exec := NewExecutor(pool, models, bumper, ExecutorOptions{})
	rep, err := exec.Execute(context.Background(), ExecuteRequest{
		Rows: 96, K: 16, N: 16, Rounds: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Detail) != 3 {
		t.Fatalf("want 3 rounds, got %d", len(rep.Detail))
	}
	g0 := rep.Detail[0].ModelGens["w1"]
	g2 := rep.Detail[2].ModelGens["w1"]
	if g2 <= g0 {
		t.Fatalf("model generation did not advance across rounds: round0=%d round2=%d", g0, g2)
	}
}

type genBumper struct {
	models *mapModels
	t      *testing.T
}

func (b *genBumper) ObserveWorker(name string, _ []refine.Sample) {
	if name != "w1" {
		return
	}
	pl, _, err := b.models.WorkerModel("w1")
	if err != nil {
		b.t.Error(err)
		return
	}
	if _, err := b.models.PutWorkerModel("w1", pl); err != nil {
		b.t.Error(err)
	}
}

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"fpmpart/internal/blas"
	"fpmpart/internal/fpm"
	"fpmpart/internal/matrix"
	"fpmpart/internal/partition"
	"fpmpart/internal/refine"
	"fpmpart/internal/service"
	"fpmpart/internal/workerd"
)

// execShape is the GEMM job an exec workload submits and the band ladder its
// workers calibrate on.
type execShape struct {
	rows, k, n int
	bands      []int
	warmup     int // FPM jobs before timing, so refinement has learnt the skew
}

var (
	// Compute-dominated: the fast worker's shard is ≥150 ms of kernel.
	execLarge = execShape{rows: 4096, k: 1536, n: 1536, bands: []int{2048, 4096}, warmup: 8}
	// Overhead-dominated: the kernel is a fraction of a millisecond.
	execSmall = execShape{rows: 256, k: 256, n: 256, bands: []int{32, 64, 128, 256}, warmup: 40}
)

// slowFault makes the second worker three times slower than its
// self-calibration saw: the extra time is slept, so it costs wall clock
// without taking a core from the fast worker.
const (
	slowFactor = 3
	slowFault  = "slow:dev=0,iter=0,factor=3"
)

// fleetCapacity is the fleet's throughput in fast-worker units: 1 + 1/3.
const fleetCapacity = 4.0 / 3.0

// execJob is what the benchmark keeps of one answered job.
type execJob struct {
	wall   float64 // client-side seconds
	shards []workerd.ShardReport
}

func (j execJob) shardSeconds() (min, max float64) {
	for i, s := range j.shards {
		if i == 0 || s.Seconds < min {
			min = s.Seconds
		}
		if s.Seconds > max {
			max = s.Seconds
		}
	}
	return min, max
}

type execInstance struct {
	shape    execShape
	seed     int64
	fpmd     *node
	workers  []*worker
	c        *client
	startGen uint64 // generation of the slow worker's model when timing began

	jobs                 []execJob // timed fpm jobs
	even                 []float64 // client-side seconds of even-split jobs
	deaths, repartitions int
}

func setupExec(shape execShape, seed int64) (*execInstance, error) {
	// Refinement must be able to follow one timing per worker per job, so
	// the buckets publish from their second sample on and are not held back
	// between jobs; the daemon's defaults assume batched client traffic.
	fpmd, err := startFpmd(service.Config{
		EnableWorkers: true,
		EnableObserve: true,
		Refine:        refine.Config{MinSamples: 2, MaxSamplesPerBucket: 2, Cooldown: time.Millisecond},
		// No heartbeats are sent: the workers live as long as the benchmark.
		WorkerTTL: time.Hour,
	})
	if err != nil {
		return nil, err
	}
	in := &execInstance{shape: shape, seed: seed, fpmd: fpmd, c: newClient()}
	if err := in.prepare(); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// prepare starts the fleet and brings it to the state timing starts from.
func (in *execInstance) prepare() error {
	for _, spec := range []struct{ name, fault string }{{"fast", ""}, {"slow", slowFault}} {
		w, err := startWorker(spec.name, spec.fault)
		if err != nil {
			return err
		}
		in.workers = append(in.workers, w)
	}
	// The workers calibrate and register side by side, as separate worker
	// processes starting together would.
	errs := make([]error, len(in.workers))
	var wg sync.WaitGroup
	for i, w := range in.workers {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			c := newClient()
			defer c.close()
			if err := w.register(c, in.fpmd.base, in.shape.bands, in.shape.k, in.shape.n); err != nil {
				errs[i] = fmt.Errorf("register %s: %w", w.name, err)
			}
		}(i, w)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for i := 0; i < in.shape.warmup; i++ {
		if _, err := in.submit(workerd.PartitionFPM, int64(i), false); err != nil {
			return fmt.Errorf("warm-up job %d: %w", i, err)
		}
	}
	if err := in.verifyJob(); err != nil {
		return err
	}
	var err error
	in.startGen, err = in.c.modelGen(in.fpmd.base, "slow")
	return err
}

func (in *execInstance) close() {
	in.c.close()
	for _, w := range in.workers {
		w.stop()
	}
	in.fpmd.stop()
}

// submit runs one job through POST /v1/execute and checks the answer: the
// bands tile [0,rows) in order, every shard ran on its first attempt, no
// worker died and nothing was re-partitioned.
func (in *execInstance) submit(strategy string, i int64, verify bool) (*workerd.ExecuteReport, error) {
	body, err := json.Marshal(workerd.ExecuteRequest{
		Rows: in.shape.rows, K: in.shape.k, N: in.shape.n,
		Seed: in.seed*1_000_003 + i + 1, Partition: strategy, Verify: verify,
	})
	if err != nil {
		return nil, err
	}
	data, err := in.c.do(http.MethodPost, in.fpmd.base+"/v1/execute", body)
	if err != nil {
		return nil, err
	}
	rep := new(workerd.ExecuteReport)
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, err
	}
	if len(rep.Detail) != 1 {
		return nil, fmt.Errorf("%s: %d rounds reported, want 1", rep.Job, len(rep.Detail))
	}
	rd := rep.Detail[0]
	in.deaths += len(rd.Deaths)
	in.repartitions += rd.Repartitions
	if len(rd.Deaths) > 0 || rd.Repartitions > 0 {
		return nil, fmt.Errorf("%s: deaths %v, %d repartitions", rep.Job, rd.Deaths, rd.Repartitions)
	}
	if err := checkBands(rd.Shards, in.shape.rows); err != nil {
		return nil, fmt.Errorf("%s: %w", rep.Job, err)
	}
	if verify && !(rep.Verified && rep.BitExact) {
		return nil, fmt.Errorf("%s: result not bit-exact (max abs diff %g)", rep.Job, rep.MaxAbsDiff)
	}
	return rep, nil
}

// verifyJob ships one job's result bands back and has the coordinator
// replay them locally, bit for bit.
func (in *execInstance) verifyJob() error {
	_, err := in.submit(workerd.PartitionFPM, -1, true)
	return err
}

func (in *execInstance) run(d time.Duration, slices int, traced bool) window {
	return closedLoop(1, d, slices, func(_, i int) (time.Duration, bool, error) {
		// Traced runs interleave the even-split baseline in blocks, so both
		// strategies see the same machine state.
		strategy := workerd.PartitionFPM
		if traced && i%7 >= 5 {
			strategy = workerd.PartitionEven
		}
		start := time.Now()
		rep, err := in.submit(strategy, int64(1000+i), false)
		lat := time.Since(start)
		if err != nil {
			return 0, false, err
		}
		if strategy == workerd.PartitionEven {
			in.even = append(in.even, lat.Seconds())
			return lat, true, nil
		}
		in.jobs = append(in.jobs, execJob{wall: lat.Seconds(), shards: rep.Detail[0].Shards})
		return lat, false, nil
	})
}

// finish is the post-window output check.
func (in *execInstance) finish() (attempted, failed int, err error) {
	if err := in.verifyJob(); err != nil {
		return 1, 1, err
	}
	return 1, 0, nil
}

// counters are the execute path's layer numbers, from the timed jobs.
func (in *execInstance) counters() map[string]float64 {
	var imbalance, overhead, predict, walls []float64
	for _, j := range in.jobs {
		min, max := j.shardSeconds()
		walls = append(walls, j.wall)
		if min > 0 {
			imbalance = append(imbalance, max/min)
		}
		overhead = append(overhead, (j.wall-max)/j.wall)
		for _, s := range j.shards {
			if s.Seconds > 0 && s.Predicted > 0 {
				predict = append(predict, s.Predicted/s.Seconds)
			}
		}
	}
	out := map[string]float64{
		"workerd.deaths":       float64(in.deaths),
		"workerd.repartitions": float64(in.repartitions),
	}
	if len(walls) > 0 {
		out["workerd.imbalance_p50"] = median(imbalance)
		out["workerd.overhead_frac"] = median(overhead)
		out["workerd.predict_ratio_p50"] = median(predict)
	}
	if len(in.even) > 0 && len(walls) > 0 {
		out["workerd.fpm_over_even_x"] = median(in.even) / median(walls)
	}
	if len(walls) > 0 {
		// The plain baseline: the whole job as one single-threaded GEMM
		// here, against the fleet's capacity in such threads.
		if a, b, err := fillOperands(in.shape.rows, in.shape.k, in.shape.n, 1); err == nil {
			if single, err := timeEach(3, func(int) error { return bandGemm(a, b, in.shape.rows) }); err == nil {
				out["workerd.parallel_efficiency"] = median(single) / (median(walls) * fleetCapacity)
			}
		}
	}
	if gen, err := in.c.modelGen(in.fpmd.base, "slow"); err == nil {
		out["refine.publishes"] = float64(gen - in.startGen)
	}
	return out
}

// trace re-enacts jobs level by level: the whole job over HTTP; then the
// solve on the models the coordinator serves; then the same bands posted
// straight to the workers, concurrently, as the executor does; then, for
// each band, the operand regeneration and the kernel the worker ran.
func (in *execInstance) trace(tr *tracer, d time.Duration) error {
	// One connection per worker, as the executor keeps.
	conns := map[string]*client{}
	for _, w := range in.workers {
		conns[w.name] = newClient()
		defer conns[w.name].close()
	}
	return traceLoop(1, d, func(_, r int) error {
		var rep *workerd.ExecuteReport
		root, err := tr.call("service.execute", -1, r, func() (err error) {
			rep, err = in.submit(workerd.PartitionFPM, int64(5000+r), false)
			return err
		})
		if err != nil {
			return err
		}
		// One band per worker that got rows: a worker the model gives
		// nothing to has no shard.
		shards := rep.Detail[0].Shards

		devices, err := in.servedDevices()
		if err != nil {
			return err
		}
		if _, err := tr.call("partition.FPM", root, r, func() error {
			_, err := partition.FPM(devices, in.shape.rows, partition.FPMOptions{})
			return err
		}); err != nil {
			return err
		}

		dispatch := tr.begin("workerd.dispatch", root, r)
		posts := make([]int, len(shards))
		errs := make([]error, len(shards))
		var wg sync.WaitGroup
		for i, s := range shards {
			wg.Add(1)
			go func(i int, s workerd.ShardReport) {
				defer wg.Done()
				posts[i], errs[i] = tr.call("workerd.shard", dispatch, r, func() error {
					_, err := postShard(conns[s.Worker], in.workerBase(s.Worker), in.shardRequest(rep, s))
					return err
				})
			}(i, s)
		}
		wg.Wait()
		tr.end(dispatch)
		if err := errors.Join(errs...); err != nil {
			return err
		}

		for i, s := range shards {
			slowdown := 1.0
			if s.Worker == "slow" {
				slowdown = slowFactor
			}
			if err := traceShardWork(tr, posts[i], r, in.shape, s.Units, slowdown); err != nil {
				return err
			}
		}
		return nil
	})
}

// traceShardWork re-enacts what a worker does for one band of units rows:
// regenerate both operands, then one single-threaded packed GEMM. The slow
// worker's kernel is slowdown times slower by construction, so its
// re-enactment sleeps the difference, as the worker does.
func traceShardWork(tr *tracer, parent, request int, shape execShape, units int, slowdown float64) error {
	var a, b *matrix.Dense
	if _, err := tr.call("matrix.fill", parent, request, func() (err error) {
		a, b, err = fillOperands(shape.rows, shape.k, shape.n, 1)
		return err
	}); err != nil {
		return err
	}
	_, err := tr.call("blas.GemmPacked", parent, request, func() error {
		start := time.Now()
		err := bandGemm(a, b, units)
		time.Sleep(time.Duration((slowdown - 1) * float64(time.Since(start))))
		return err
	})
	return err
}

// fillOperands is the per-shard operand regeneration of workerd.
func fillOperands(rows, k, n int, seed int64) (a, b *matrix.Dense, err error) {
	if a, err = matrix.New(rows, k); err != nil {
		return nil, nil, err
	}
	if b, err = matrix.New(k, n); err != nil {
		return nil, nil, err
	}
	a.FillRandom(seed)
	b.FillRandom(seed + 1)
	return a, b, nil
}

// bandGemm multiplies the first band rows of a by b on one thread, with the
// configuration workerd picks for that shape.
func bandGemm(a, b *matrix.Dense, band int) error {
	av, err := a.View(0, 0, band, a.Cols)
	if err != nil {
		return err
	}
	c, err := matrix.New(band, b.Cols)
	if err != nil {
		return err
	}
	return blas.GemmPacked(1, av, b, 0, c, blas.ActiveFor(band, a.Cols, b.Cols), 1)
}

func (in *execInstance) workerBase(name string) string {
	for _, w := range in.workers {
		if w.name == name {
			return w.base
		}
	}
	return ""
}

func (in *execInstance) shardRequest(rep *workerd.ExecuteReport, s workerd.ShardReport) workerd.ShardRequest {
	return workerd.ShardRequest{
		Job: "bench-" + rep.Job, Seed: 1,
		Rows: rep.Rows, K: rep.K, N: rep.N,
		Row0: s.Row0, Row1: s.Row1,
	}
}

// servedDevices fetches the workers' models as the coordinator serves them
// now.
func (in *execInstance) servedDevices() ([]partition.Device, error) {
	devices := make([]partition.Device, len(in.workers))
	for i, w := range in.workers {
		data, err := in.c.do(http.MethodGet, in.fpmd.base+"/v1/models/"+w.name, nil)
		if err != nil {
			return nil, err
		}
		pl := new(fpm.PiecewiseLinear)
		if err := pl.UnmarshalJSON(data); err != nil {
			return nil, err
		}
		devices[i] = partition.Device{Name: w.name, Model: pl}
	}
	return devices, nil
}

// postShard sends one shard straight to a worker.
func postShard(c *client, base string, req workerd.ShardRequest) (*workerd.ShardResponse, error) {
	body, err := json.Marshal(&req)
	if err != nil {
		return nil, err
	}
	data, err := c.do(http.MethodPost, base+workerd.ShardPath, body)
	if err != nil {
		return nil, err
	}
	out := new(workerd.ShardResponse)
	if err := json.Unmarshal(data, out); err != nil {
		return nil, err
	}
	return out, nil
}

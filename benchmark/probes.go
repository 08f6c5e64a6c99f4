package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"fpmpart/internal/fpm"
	"fpmpart/internal/partition"
	"fpmpart/internal/service"
	"fpmpart/internal/workerd"
)

// The layer probes call each layer's public functions directly, on fixed
// seed-generated inputs shaped like the workloads' own. Every traced run
// executes all of them, whatever its workload, so their numbers compare
// across runs and commits; the workload-specific per-layer numbers come
// from the workload's own traffic and trace.

// timeEach runs f reps times and returns each call's seconds.
func timeEach(reps int, f func(i int) error) ([]float64, error) {
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := f(i); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}

func runProbes(seed int64, ms *metrics) error {
	for _, probe := range []func(int64, *metrics) error{
		probePartition, probeFPM, probeKernel, probeService, probeWorker, probeObserve, probeRing,
	} {
		if err := probe(seed, ms); err != nil {
			return err
		}
	}
	return nil
}

// probePartition times the solver alone at four fleet sizes, each solve on
// a size the solver has not seen.
func probePartition(seed int64, ms *metrics) error {
	rng := rand.New(rand.NewSource(seed))
	for _, p := range []int{2, 6, 24, 96} {
		ids, models := seededModels(rng, "p", p)
		devices := devicesOf(ids, models)
		var iters []float64
		secs, err := timeEach(40, func(int) error {
			res, err := partition.FPM(devices, p*(60+rng.Intn(190)), partition.FPMOptions{})
			if err == nil && !res.Converged {
				err = fmt.Errorf("partition probe: %d devices did not converge", p)
			}
			iters = append(iters, float64(res.Iterations))
			return err
		})
		if err != nil {
			return err
		}
		ms.add(fmt.Sprintf("partition.solve_us.p%d", p), median(secs)*1e6, len(secs), 0.5)
		if p >= 24 {
			ms.add(fmt.Sprintf("partition.iterations.p%d", p), median(iters), len(iters), 0.5)
		}
	}
	return nil
}

// probeFPM times a speed lookup and the JSON decode of one 16-knot model,
// the unit of work of every model upload and replication.
func probeFPM(seed int64, ms *metrics) error {
	m := service.SyntheticModel(modelKnots, 500)
	raw, err := m.MarshalJSON()
	if err != nil {
		return err
	}
	const evals = 100000
	sink := 0.0
	secs, _ := timeEach(9, func(int) error {
		for i := 0; i < evals; i++ {
			sink += m.Speed(16 + float64(i%240))
		}
		return nil
	})
	if sink == 0 {
		return fmt.Errorf("fpm probe: speeds summed to zero")
	}
	ms.add("fpm.eval_ns", median(secs)/evals*1e9, len(secs)*evals, 0.5)
	secs, err = timeEach(2000, func(int) error {
		return new(fpm.PiecewiseLinear).UnmarshalJSON(raw)
	})
	if err != nil {
		return err
	}
	ms.add("fpm.unmarshal_us", median(secs)*1e6, len(secs), 0.5)
	return nil
}

// probeKernel times, on one thread, what the workers of the exec workloads
// do per shard: regenerate the operands, then multiply a band. The large
// band is the fast worker's share of exec-large (three quarters of the
// rows), the small one its share of exec-small; the whole large job on one
// thread is the plain baseline the fleet is compared with.
func probeKernel(_ int64, ms *metrics) error {
	const reps = 3
	l, s := execLarge, execSmall
	lBand, sBand := l.rows*3/4, s.rows*3/4
	a, b, err := fillOperands(l.rows, l.k, l.n, 1)
	if err != nil {
		return err
	}
	fill, err := timeEach(reps, func(i int) error {
		_, _, err := fillOperands(l.rows, l.k, l.n, int64(i))
		return err
	})
	if err != nil {
		return err
	}
	ms.add("matrix.fill_s", median(fill), reps, 0.5)
	whole, err := timeEach(reps, func(int) error { return bandGemm(a, b, l.rows) })
	if err != nil {
		return err
	}
	ms.add("blas.single_job_s", median(whole), reps, 0.5)
	shard, err := timeEach(reps, func(int) error { return bandGemm(a, b, lBand) })
	if err != nil {
		return err
	}
	flop := 2 * float64(lBand) * float64(l.k) * float64(l.n)
	ms.add("blas.shard_gemm_s", median(shard), reps, 0.5)
	ms.add("blas.shard_gemm_gflops", flop/median(shard)/1e9, reps, 0.5)
	ms.add("blas.gemm_flop", flop, 1, 0)
	// Computed from the shapes, not measured: A band and B read once, C
	// written once, four bytes each.
	ms.add("blas.gemm_bytes_computed", 4*float64(lBand*l.k+l.k*l.n+lBand*l.n), 1, 0)

	a, b, err = fillOperands(s.rows, s.k, s.n, 1)
	if err != nil {
		return err
	}
	small, err := timeEach(200, func(int) error { return bandGemm(a, b, sBand) })
	if err != nil {
		return err
	}
	ms.add("blas.small_gemm_s", median(small), len(small), 0.5)
	return nil
}

// probeService times the partition handler with no socket under it, on a
// hit and on a miss, counts its allocations, and measures what loopback
// HTTP adds to a hit.
func probeService(seed int64, ms *metrics) error {
	in, err := setupServe(false, seed)
	if err != nil {
		return err
	}
	defer in.close()
	h, err := newShadow(in.ids, in.models)
	if err != nil {
		return err
	}
	for _, rq := range in.warm {
		if _, err := serveInMemory(h, rq.body); err != nil {
			return err
		}
	}
	measure := func(name string, reps int, body func(i int) []byte) (float64, error) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		secs, err := timeEach(reps, func(i int) error {
			_, err := serveInMemory(h, body(i))
			return err
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			return 0, err
		}
		ms.add("service.handler_"+name+"_us", median(secs)*1e6, reps, 0.5)
		// Includes the recorder and the answer decode the benchmark adds,
		// the same on every commit.
		ms.add("service.allocs_"+name, float64(after.Mallocs-before.Mallocs)/float64(reps), reps, 0)
		return median(secs), nil
	}
	warm, err := measure("warm", 2000, func(i int) []byte { return in.warm[i%len(in.warm)].body })
	if err != nil {
		return err
	}
	if _, err := measure("cold", 300, func(i int) []byte { return partitionBody(in.ids, 7000+i) }); err != nil {
		return err
	}
	wire, err := timeEach(2000, func(i int) error {
		_, err := in.post(in.clients[0], in.warm[i%len(in.warm)])
		return err
	})
	if err != nil {
		return err
	}
	ms.add("service.http_overhead_us", (median(wire)-warm)*1e6, len(wire), 0.5)
	return nil
}

// probeWorker posts shards straight to one worker: the round trip against
// the kernel time the worker reports, on exec-small's shard; and what
// shipping a result band the size of exec-large's costs, on a shard with
// almost no arithmetic.
func probeWorker(_ int64, ms *metrics) error {
	w, err := startWorker("probe", "")
	if err != nil {
		return err
	}
	defer w.stop()
	c := newClient()
	defer c.close()
	s := execSmall
	small := workerd.ShardRequest{Job: "probe", Seed: 1, Rows: s.rows, K: s.k, N: s.n, Row1: s.rows * 3 / 4}
	var kernel, overhead []float64
	rtt, err := timeEach(200, func(int) error {
		start := time.Now()
		resp, err := postShard(c, w.base, small)
		if err != nil {
			return err
		}
		kernel = append(kernel, resp.Seconds)
		overhead = append(overhead, time.Since(start).Seconds()-resp.Seconds)
		return nil
	})
	if err != nil {
		return err
	}
	ms.add("workerd.shard_rtt_s", median(rtt), len(rtt), 0.5)
	ms.add("workerd.shard_kernel_s", median(kernel), len(kernel), 0.5)
	ms.add("workerd.shard_overhead_s", median(overhead), len(overhead), 0.5)

	l := execLarge
	band := workerd.ShardRequest{Job: "probe", Seed: 1, Rows: l.rows, K: 8, N: l.n, Row1: l.rows * 3 / 4}
	bytes := 0
	var with, without []float64
	for i := 0; i < 5; i++ {
		for _, ship := range []bool{false, true} {
			band.ReturnResult = ship
			start := time.Now()
			resp, err := postShard(c, w.base, band)
			if err != nil {
				return err
			}
			if sec := time.Since(start).Seconds(); ship {
				with = append(with, sec)
				bytes = len(resp.Result)
			} else {
				without = append(without, sec)
			}
		}
	}
	ms.add("workerd.result_wire_s", median(with)-median(without), len(with), 0.5)
	ms.add("workerd.result_bytes", float64(bytes), 1, 0)
	return nil
}

// probeObserve times one two-sample /v1/observe batch, what the executor
// feeds the refiner after every job.
func probeObserve(_ int64, ms *metrics) error {
	fpmd, err := startFpmd(service.Config{EnableObserve: true})
	if err != nil {
		return err
	}
	defer fpmd.stop()
	c := newClient()
	defer c.close()
	if _, err := c.putModel(fpmd.base, "observed", service.SyntheticModel(modelKnots, 500)); err != nil {
		return err
	}
	secs, err := timeEach(300, func(i int) error {
		size := 64 + float64(i%128)
		body, err := json.Marshal(map[string]any{"model": "observed", "samples": []map[string]float64{
			{"size": size, "seconds": size / 500}, {"size": size + 1, "seconds": (size + 1) / 500},
		}})
		if err != nil {
			return err
		}
		_, err = c.do(http.MethodPost, fpmd.base+"/v1/observe", body)
		return err
	})
	if err != nil {
		return err
	}
	ms.add("refine.observe_us", median(secs)*1e6, len(secs), 0.5)
	return nil
}

// probeRing measures the ring's own costs on a quiet three-member ring:
// what the forward hop adds to a cached read, a model write, and how long a
// write takes to be readable on every member.
func probeRing(seed int64, ms *metrics) error {
	in, err := setupRing(seed)
	if err != nil {
		return err
	}
	defer in.close()
	rc := in.clients[0]
	var local, forwarded []float64
	for i := 0; i < 900; i++ {
		before := rc.forwarded
		lat, err := in.read(rc, 0, i)
		if err != nil {
			return err
		}
		if rc.forwarded > before {
			forwarded = append(forwarded, lat.Seconds())
		} else {
			local = append(local, lat.Seconds())
		}
	}
	if len(local) == 0 || len(forwarded) == 0 {
		return fmt.Errorf("ring probe: %d local and %d forwarded reads", len(local), len(forwarded))
	}
	ms.add("clusterd.forward_hop_us", (median(forwarded)-median(local))*1e6, len(forwarded), 0.5)

	var put, replicate []float64
	for i := 0; i < 24; i++ {
		m := in.fleets[i%ringFleets][0]
		start := time.Now()
		if err := in.write(rc, m); err != nil {
			return err
		}
		acked := time.Now()
		if err := in.awaitReplication(rc, m); err != nil {
			return err
		}
		put = append(put, acked.Sub(start).Seconds())
		replicate = append(replicate, time.Since(acked).Seconds())
	}
	ms.add("clusterd.put_us", median(put)*1e6, len(put), 0.5)
	ms.add("clusterd.replicate_ms", median(replicate)*1e3, len(replicate), 0.5)
	return nil
}

package workerd

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fpmpart/internal/fpm"
	"fpmpart/internal/matrix"
	"fpmpart/internal/partition"
	"fpmpart/internal/refine"
)

// ModelSource resolves a worker's currently served model (internal/service
// adapts its registry). The executor resolves fresh every round, so an
// /v1/observe refinement between rounds changes the next partition.
type ModelSource interface {
	WorkerModel(name string) (*fpm.PiecewiseLinear, uint64, error)
}

// Observer receives the measured shard timings of one worker (the service
// adapter feeds them into the /v1/observe refinement loop, routing to the
// model's ring owner in cluster mode).
type Observer interface {
	ObserveWorker(name string, samples []refine.Sample)
}

// Partition strategies accepted by ExecuteRequest.Partition.
const (
	PartitionFPM  = "fpm"
	PartitionEven = "even"
)

// ExecuteRequest is the body of POST /v1/execute: run a GEMM job across the
// registered workers.
type ExecuteRequest struct {
	// Rows is the partitioned dimension (rows of C). Required.
	Rows int `json:"rows"`
	// N is the column count; default Rows.
	N int `json:"n,omitempty"`
	// K is the gemm depth; default N.
	K int `json:"k,omitempty"`
	// Rounds repeats the partition+dispatch cycle, re-partitioning each
	// round on the then-current models; default 1.
	Rounds int `json:"rounds,omitempty"`
	// Seed regenerates the operands on every worker; default 1.
	Seed int64 `json:"seed,omitempty"`
	// Partition is "fpm" (default) or "even".
	Partition string `json:"partition,omitempty"`
	// Verify ships the final round's result bands back and replays the same
	// shard boundaries on the coordinator's local kernel, asserting
	// bit-identical bytes.
	Verify bool `json:"verify,omitempty"`
	// Workers restricts the job to a subset of registered workers
	// (default: every live worker).
	Workers []string `json:"workers,omitempty"`
}

func (r *ExecuteRequest) normalize() error {
	if r.Rows <= 0 {
		return fmt.Errorf("workerd: rows must be positive, got %d", r.Rows)
	}
	if r.N <= 0 {
		r.N = r.Rows
	}
	if r.K <= 0 {
		r.K = r.N
	}
	if err := checkOperands(r.Rows, r.K, r.N); err != nil {
		return err
	}
	if r.Rounds <= 0 {
		r.Rounds = 1
	}
	if r.Rounds > 10000 {
		return fmt.Errorf("workerd: rounds %d exceeds limit 10000", r.Rounds)
	}
	if r.Seed == 0 {
		r.Seed = 1
	}
	switch r.Partition {
	case "":
		r.Partition = PartitionFPM
	case PartitionFPM, PartitionEven:
	default:
		return fmt.Errorf("workerd: unknown partition strategy %q", r.Partition)
	}
	return nil
}

// ShardReport is one dispatched shard's outcome.
type ShardReport struct {
	Worker  string  `json:"worker"`
	Row0    int     `json:"row0"`
	Row1    int     `json:"row1"`
	Units   int     `json:"units"`
	Seconds float64 `json:"seconds"`
	// Predicted is the model-predicted time for this share (FPM mode).
	Predicted float64 `json:"predicted_seconds,omitempty"`
	// Attempt is 0 for the round's initial partition, >0 for shards
	// re-dispatched after a worker death.
	Attempt int `json:"attempt"`
}

// RoundReport is one partition+dispatch cycle.
type RoundReport struct {
	Round        int               `json:"round"`
	Shards       []ShardReport     `json:"shards"`
	WallSeconds  float64           `json:"wall_seconds"`
	ModelGens    map[string]uint64 `json:"model_gens"`
	Deaths       []string          `json:"deaths,omitempty"`
	Repartitions int               `json:"repartitions"`
}

// ExecuteReport is the answer to POST /v1/execute.
type ExecuteReport struct {
	Job       string        `json:"job"`
	Rows      int           `json:"rows"`
	K         int           `json:"k"`
	N         int           `json:"n"`
	Rounds    int           `json:"rounds"`
	Partition string        `json:"partition"`
	Workers   []string      `json:"workers"`
	Detail    []RoundReport `json:"round_reports"`
	// WallSeconds covers every round end to end (partition, dispatch,
	// gather, observe).
	WallSeconds float64  `json:"wall_seconds"`
	Deaths      []string `json:"deaths,omitempty"`
	// Verified/BitExact report the local-replay check of the final round.
	Verified   bool    `json:"verified"`
	BitExact   bool    `json:"bit_exact,omitempty"`
	MaxAbsDiff float64 `json:"max_abs_diff,omitempty"`
	// Checksum is the CRC-32C of the assembled result (final round).
	Checksum uint32 `json:"checksum,omitempty"`
}

// shardTimeout bounds one shard request.
const shardTimeout = 2 * time.Minute

// ExecutorOptions tunes dispatch.
type ExecutorOptions struct {
	// Logger receives dispatch events. Nil discards.
	Logger *slog.Logger
	// client performs shard dispatch. Nil = a fresh client with no global
	// timeout (per-shard deadlines come from shardTimeout).
	client *http.Client
}

func (o ExecutorOptions) withDefaults() ExecutorOptions {
	if o.client == nil {
		o.client = &http.Client{}
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}

// Executor partitions jobs over the pool's live workers with the FPM solver
// on their served models, dispatches the shards concurrently, feeds observed
// timings to the Observer, and re-partitions the residual among survivors
// when a worker dies mid-job.
type Executor struct {
	pool     *Pool
	models   ModelSource
	observer Observer
	opts     ExecutorOptions
	jobSeq   atomic.Uint64
}

// NewExecutor builds an executor. models is required; observer may be nil.
func NewExecutor(pool *Pool, models ModelSource, observer Observer, opts ExecutorOptions) *Executor {
	return &Executor{pool: pool, models: models, observer: observer, opts: opts.withDefaults()}
}

// shardOutcome pairs a successful shard's report with its gathered band.
type shardOutcome struct {
	report ShardReport
	data   []byte
}

// Execute runs one job to completion. Every round re-partitions on the
// models as currently served, so observe-driven refinement between rounds
// visibly shifts the shares.
func (e *Executor) Execute(ctx context.Context, req ExecuteRequest) (*ExecuteReport, error) {
	if err := req.normalize(); err != nil {
		return nil, err
	}
	job := fmt.Sprintf("job-%d", e.jobSeq.Add(1))
	sel, err := e.selection(req.Workers)
	if err != nil {
		return nil, err
	}

	report := &ExecuteReport{
		Job:  job,
		Rows: req.Rows, K: req.K, N: req.N,
		Rounds: req.Rounds, Partition: req.Partition,
		Workers: sel,
	}
	jobsTotal.Inc()

	start := time.Now()
	deaths := map[string]bool{}
	var finalOutcomes []shardOutcome
	for r := 0; r < req.Rounds; r++ {
		live := e.liveSubset(sel)
		if len(live) == 0 {
			return report, fmt.Errorf("workerd: job %s round %d: no live workers remain", job, r)
		}
		rs := &roundState{
			e: e, job: job, req: &req, round: r,
			returnResult: req.Verify && r == req.Rounds-1,
			gens:         map[string]uint64{},
		}
		roundStart := time.Now()
		if err := rs.dispatch(ctx, 0, req.Rows, live, 0); err != nil {
			return report, fmt.Errorf("workerd: job %s round %d: %w", job, r, err)
		}
		wall := time.Since(roundStart).Seconds()
		roundSeconds.Observe(wall)

		sort.Slice(rs.outcomes, func(i, j int) bool { return rs.outcomes[i].report.Row0 < rs.outcomes[j].report.Row0 })
		rr := RoundReport{
			Round: r, WallSeconds: wall, ModelGens: rs.gens,
			Deaths: rs.deaths, Repartitions: rs.repartitions,
		}
		for _, o := range rs.outcomes {
			rr.Shards = append(rr.Shards, o.report)
		}
		report.Detail = append(report.Detail, rr)
		for _, d := range rs.deaths {
			deaths[d] = true
		}
		e.feedObserver(rs.outcomes)
		if r == req.Rounds-1 {
			finalOutcomes = rs.outcomes
		}
	}
	report.WallSeconds = time.Since(start).Seconds()
	report.Deaths = sortedKeys(deaths)

	if req.Verify {
		bitExact, maxDiff, sum, err := verifyOutcomes(&req, finalOutcomes)
		if err != nil {
			return report, fmt.Errorf("workerd: job %s verify: %w", job, err)
		}
		report.Verified = true
		report.BitExact = bitExact
		report.MaxAbsDiff = maxDiff
		report.Checksum = sum
	}
	return report, nil
}

// selection resolves the requested worker subset (default: all currently
// live), erroring on unknown names so typos fail loudly.
func (e *Executor) selection(names []string) ([]string, error) {
	if len(names) == 0 {
		alive := e.pool.Alive()
		if len(alive) == 0 {
			return nil, fmt.Errorf("workerd: no live workers registered")
		}
		out := make([]string, len(alive))
		for i, w := range alive {
			out[i] = w.Name
		}
		return out, nil
	}
	out := append([]string(nil), names...)
	sort.Strings(out)
	for _, n := range out {
		if _, ok := e.pool.Get(n); !ok {
			return nil, fmt.Errorf("workerd: unknown worker %q", n)
		}
	}
	return out, nil
}

func (e *Executor) liveSubset(sel []string) []WorkerInfo {
	want := make(map[string]bool, len(sel))
	for _, n := range sel {
		want[n] = true
	}
	var out []WorkerInfo
	for _, w := range e.pool.Alive() {
		if want[w.Name] {
			out = append(out, w)
		}
	}
	return out
}

func (e *Executor) feedObserver(outcomes []shardOutcome) {
	if e.observer == nil {
		return
	}
	byWorker := map[string][]refine.Sample{}
	var order []string
	for _, o := range outcomes {
		if _, seen := byWorker[o.report.Worker]; !seen {
			order = append(order, o.report.Worker)
		}
		byWorker[o.report.Worker] = append(byWorker[o.report.Worker], refine.Sample{
			Size: float64(o.report.Units), Seconds: o.report.Seconds,
		})
	}
	sort.Strings(order)
	for _, name := range order {
		e.observer.ObserveWorker(name, byWorker[name])
	}
}

// roundState accumulates one round's dispatch across recursive recoveries.
type roundState struct {
	e            *Executor
	job          string
	req          *ExecuteRequest
	round        int
	returnResult bool

	mu           sync.Mutex
	outcomes     []shardOutcome
	deaths       []string
	repartitions int
	gens         map[string]uint64
}

// share is one worker's slice of a dispatch range.
type share struct {
	worker    WorkerInfo
	units     int
	predicted float64
}

// dispatch partitions [row0,row1) over workers, sends the shards
// concurrently, and recursively re-partitions any failed band among the
// survivors. attempt counts the recovery depth.
func (rs *roundState) dispatch(ctx context.Context, row0, row1 int, workers []WorkerInfo, attempt int) error {
	if row1 <= row0 {
		return nil
	}
	if len(workers) == 0 {
		return fmt.Errorf("band [%d,%d): no live workers remain", row0, row1)
	}
	shares, err := rs.shares(workers, row1-row0)
	if err != nil {
		return err
	}

	type sent struct {
		share      share
		row0, row1 int
		resp       *ShardResponse
		err        error
	}
	var (
		wg    sync.WaitGroup
		sends []*sent
	)
	cur := row0
	for _, sh := range shares {
		if sh.units == 0 {
			continue
		}
		s := &sent{share: sh, row0: cur, row1: cur + sh.units}
		cur += sh.units
		sends = append(sends, s)
		wg.Add(1)
		go func(s *sent) {
			defer wg.Done()
			s.resp, s.err = rs.e.sendShard(ctx, s.share.worker, &ShardRequest{
				Job: rs.job, Seed: rs.req.Seed,
				Rows: rs.req.Rows, K: rs.req.K, N: rs.req.N,
				Row0: s.row0, Row1: s.row1, Round: rs.round,
				ReturnResult: rs.returnResult,
			})
		}(s)
	}
	wg.Wait()

	failedNames := map[string]bool{}
	type band struct{ row0, row1 int }
	var failedBands []band
	for _, s := range sends {
		if s.err != nil {
			dispatchTotal("error").Inc()
			rs.e.pool.recordShard(s.share.worker.Name, false)
			rs.e.pool.MarkDead(s.share.worker.Name, "shard-failed")
			failedNames[s.share.worker.Name] = true
			failedBands = append(failedBands, band{s.row0, s.row1})
			rs.mu.Lock()
			rs.deaths = append(rs.deaths, s.share.worker.Name)
			rs.mu.Unlock()
			rs.e.opts.Logger.Warn("shard failed",
				slog.String("job", rs.job), slog.String("worker", s.share.worker.Name),
				slog.Int("row0", s.row0), slog.Int("row1", s.row1),
				slog.String("error", s.err.Error()))
			continue
		}
		dispatchTotal("ok").Inc()
		rs.e.pool.recordShard(s.share.worker.Name, true)
		rs.mu.Lock()
		rs.outcomes = append(rs.outcomes, shardOutcome{
			report: ShardReport{
				Worker: s.share.worker.Name,
				Row0:   s.row0, Row1: s.row1, Units: s.row1 - s.row0,
				Seconds: s.resp.Seconds, Predicted: s.share.predicted,
				Attempt: attempt,
			},
			data: s.resp.Result,
		})
		rs.mu.Unlock()
	}

	if len(failedBands) == 0 {
		return nil
	}
	survivors := make([]WorkerInfo, 0, len(workers))
	for _, w := range workers {
		if !failedNames[w.Name] {
			survivors = append(survivors, w)
		}
	}
	for _, b := range failedBands {
		repartitionsTotal().Inc()
		rs.mu.Lock()
		rs.repartitions++
		rs.mu.Unlock()
		if err := rs.dispatch(ctx, b.row0, b.row1, survivors, attempt+1); err != nil {
			return err
		}
	}
	return nil
}

// shares splits units over workers: proportional to the served FPMs'
// speed-at-size (default) or evenly.
func (rs *roundState) shares(workers []WorkerInfo, units int) ([]share, error) {
	out := make([]share, len(workers))
	if rs.req.Partition == PartitionEven {
		base, rem := units/len(workers), units%len(workers)
		for i, w := range workers {
			u := base
			if i < rem {
				u++
			}
			out[i] = share{worker: w, units: u}
			rs.recordGen(w.Name)
		}
		return out, nil
	}
	devices := make([]partition.Device, len(workers))
	for i, w := range workers {
		pl, gen, err := rs.e.models.WorkerModel(w.Name)
		if err != nil {
			return nil, fmt.Errorf("resolving model for worker %s: %w", w.Name, err)
		}
		rs.mu.Lock()
		rs.gens[w.Name] = gen
		rs.mu.Unlock()
		devices[i] = partition.Device{Name: w.Name, Model: pl}
	}
	res, err := partition.FPM(devices, units, partition.FPMOptions{})
	if err != nil {
		return nil, fmt.Errorf("fpm partition of %d units: %w", units, err)
	}
	for i, a := range res.Assignments {
		out[i] = share{worker: workers[i], units: a.Units, predicted: a.PredictedTime}
	}
	return out, nil
}

func (rs *roundState) recordGen(name string) {
	if rs.e.models == nil {
		return
	}
	if _, gen, err := rs.e.models.WorkerModel(name); err == nil {
		rs.mu.Lock()
		rs.gens[name] = gen
		rs.mu.Unlock()
	}
}

// sendShard posts one shard and validates the answer (band length and
// checksum when the band was requested), reading no more of it than
// maxShardResponse.
func (e *Executor) sendShard(ctx context.Context, w WorkerInfo, sr *ShardRequest) (*ShardResponse, error) {
	body, err := json.Marshal(sr)
	if err != nil {
		return nil, err
	}
	cctx, cancel := context.WithTimeout(ctx, shardTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(cctx, http.MethodPost, w.URL+ShardPath, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := e.opts.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("worker %s: status %d: %s", w.Name, resp.StatusCode, bytes.TrimSpace(msg))
	}
	// Read the body to EOF, so the connection is kept, into one buffer of
	// the bound's size: a response that fills it is over the bound.
	buf := make([]byte, maxShardResponse(sr))
	n, err := io.ReadFull(resp.Body, buf)
	switch {
	case err == nil:
		return nil, fmt.Errorf("worker %s: shard response exceeds %d bytes", w.Name, len(buf))
	case err != io.ErrUnexpectedEOF && err != io.EOF:
		return nil, fmt.Errorf("worker %s: reading shard response: %w", w.Name, err)
	}
	var out ShardResponse
	if err := json.Unmarshal(buf[:n], &out); err != nil {
		return nil, fmt.Errorf("worker %s: decoding shard response: %w", w.Name, err)
	}
	if out.Row0 != sr.Row0 || out.Row1 != sr.Row1 {
		return nil, fmt.Errorf("worker %s: answered band [%d,%d), asked [%d,%d)", w.Name, out.Row0, out.Row1, sr.Row0, sr.Row1)
	}
	if sr.ReturnResult {
		want := bandBytes(sr.Row1-sr.Row0, sr.N)
		if len(out.Result) != want {
			return nil, fmt.Errorf("worker %s: band payload %d bytes, want %d", w.Name, len(out.Result), want)
		}
		if got := checksumBytes(out.Result); got != out.Checksum {
			return nil, fmt.Errorf("worker %s: band checksum %x does not match claimed %x", w.Name, got, out.Checksum)
		}
	}
	if out.Seconds < 0 || math.IsNaN(out.Seconds) || math.IsInf(out.Seconds, 0) {
		return nil, fmt.Errorf("worker %s: invalid shard seconds %v", w.Name, out.Seconds)
	}
	return &out, nil
}

// bandBytes is the wire size of one result band.
func bandBytes(rows, n int) int { return 4 * rows * n }

// shardResponseSlack covers a shard response's fields other than the band.
const shardResponseSlack = 4 << 10

// maxShardResponse is the most of a worker's answer to sr the executor
// reads: the base64 band when sr asks for it, plus the slack. A body that
// long is rejected instead of being read on.
func maxShardResponse(sr *ShardRequest) int64 {
	n := int64(shardResponseSlack)
	if sr.ReturnResult {
		n += int64(base64.StdEncoding.EncodedLen(bandBytes(sr.Row1-sr.Row0, sr.N)))
	}
	return n
}

// verifyOutcomes replays the final round's exact shard boundaries on the
// local kernel and compares byte-for-byte, row by row, against the gathered
// bands. On a single-ISA fleet the packed kernels are bit-deterministic per
// shard shape, so any mismatch is a real corruption, not float noise.
func verifyOutcomes(req *ExecuteRequest, outcomes []shardOutcome) (bitExact bool, maxDiff float64, checksum uint32, err error) {
	sorted := append([]shardOutcome(nil), outcomes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].report.Row0 < sorted[j].report.Row0 })
	cur := 0
	bitExact = true
	workers := runtime.GOMAXPROCS(0)
	rowBytes := bandBytes(1, req.N)
	var scratch []byte
	for _, o := range sorted {
		if o.report.Row0 != cur {
			return false, 0, 0, fmt.Errorf("gathered bands not contiguous: have %d, next starts at %d", cur, o.report.Row0)
		}
		cur = o.report.Row1
		if len(o.data) != bandBytes(o.report.Units, req.N) {
			return false, 0, 0, fmt.Errorf("band [%d,%d) missing result payload", o.report.Row0, o.report.Row1)
		}
		local, lerr := localShard(req, o.report.Row0, o.report.Row1, workers)
		if lerr != nil {
			return false, 0, 0, fmt.Errorf("local replay of band [%d,%d): %w", o.report.Row0, o.report.Row1, lerr)
		}
		for i := 0; i < local.Rows; i++ {
			got := o.data[i*rowBytes : (i+1)*rowBytes]
			want := wireRow(local.Data[i*local.Stride:i*local.Stride+local.Cols], &scratch)
			if !bytes.Equal(got, want) {
				bitExact = false
				maxDiff = max(maxDiff, bandDiff(got, want))
			}
		}
		checksum = crc32.Update(checksum, castagnoli, o.data)
	}
	if cur != req.Rows {
		return false, 0, 0, fmt.Errorf("gathered bands cover %d of %d rows", cur, req.Rows)
	}
	return bitExact, maxDiff, checksum, nil
}

// localShard replays one shard on the coordinator's own kernel and returns
// its band of C.
func localShard(req *ExecuteRequest, row0, row1, workers int) (*matrix.Dense, error) {
	c, _, err := executeGemm(&ShardRequest{
		Job: "verify", Seed: req.Seed,
		Rows: req.Rows, K: req.K, N: req.N,
		Row0: row0, Row1: row1,
	}, workers)
	return c, err
}

// bandDiff reports the max absolute element difference between two
// equal-length runs of wire bytes (one row each, as verifyOutcomes calls it).
func bandDiff(a, b []byte) float64 {
	if len(a) != len(b) {
		return math.Inf(1)
	}
	max := 0.0
	for i := 0; i+4 <= len(a); i += 4 {
		x := float64(math.Float32frombits(leUint32(a[i:])))
		y := float64(math.Float32frombits(leUint32(b[i:])))
		if d := math.Abs(x - y); d > max {
			max = d
		}
	}
	return max
}

func leUint32(p []byte) uint32 {
	return uint32(p[0]) | uint32(p[1])<<8 | uint32(p[2])<<16 | uint32(p[3])<<24
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

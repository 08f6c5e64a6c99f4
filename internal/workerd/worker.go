package workerd

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"sort"
	"time"
	"unsafe"

	"fpmpart/internal/blas"
	"fpmpart/internal/faults"
	"fpmpart/internal/fpm"
	"fpmpart/internal/matrix"
	"fpmpart/internal/telemetry"
)

// WorkerOptions configures one worker process.
type WorkerOptions struct {
	// Name identifies the worker (and its model) to fpmd. Required.
	Name string
	// Workers is the kernel parallelism for GemmPacked. 0 = GOMAXPROCS.
	Workers int
	// Faults injects slowdown/stall/crash behaviour into shard execution,
	// keyed on the shard's Round as the fault-plan iteration. Nil = none.
	Faults *faults.Injector
	// CrashFn is invoked when the fault plan says this worker crashes
	// (cmd/fpmworker wires os.Exit so the process really dies; tests wire a
	// listener close). Nil falls back to answering 500.
	CrashFn func()
	// Logger receives shard/serve events. Nil discards.
	Logger *slog.Logger
}

func (o WorkerOptions) withDefaults() WorkerOptions {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return o
}

// Worker is the worker-process side: it executes shards on the local packed
// kernels and serves the calibration probes.
type Worker struct {
	opts   WorkerOptions
	logger *slog.Logger
}

// NewWorker builds a worker from opts.
func NewWorker(opts WorkerOptions) (*Worker, error) {
	if opts.Name == "" {
		return nil, errors.New("workerd: worker name required")
	}
	opts = opts.withDefaults()
	return &Worker{opts: opts, logger: opts.Logger}, nil
}

// Handler returns the worker's HTTP API:
//
//	GET  /healthz          liveness (fpmd's registration-time reachability probe)
//	GET  /worker/v1/info   static facts (name, cores)
//	POST /worker/v1/shard  execute one shard, return timing (+ result band)
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(rw, `{"status":"ok","worker":%q}`+"\n", w.opts.Name)
	})
	mux.HandleFunc("GET "+InfoPath, func(rw http.ResponseWriter, _ *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(rw).Encode(map[string]any{
			"name": w.opts.Name, "cores": w.opts.Workers,
		})
	})
	mux.HandleFunc("POST "+ShardPath, w.handleShard)
	return mux
}

// Serve binds the worker's API on addr (host:0 for ephemeral) and returns
// the bound address plus a graceful shutdown.
func (w *Worker) Serve(addr string) (string, func(context.Context) error, error) {
	return telemetry.ServeHTTP(addr, w.Handler())
}

// maxShardBody bounds one shard request body.
const maxShardBody = 1 << 20

func (w *Worker) handleShard(rw http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	dec := json.NewDecoder(http.MaxBytesReader(rw, r.Body, maxShardBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(rw, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusBadRequest)
		return
	}
	if err := req.Validate(); err != nil {
		http.Error(rw, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusBadRequest)
		return
	}
	c, seconds, err := executeGemm(&req, w.opts.Workers)
	if err != nil {
		http.Error(rw, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusInternalServerError)
		return
	}

	// Fault plan: consult after the compute so a slowdown inflates the real
	// measurement (the extra time is actually slept — wall clock degrades,
	// which is what the refinement loop must observe), a stall fails this
	// call transiently, and a crash takes the process down for real.
	if inj := w.opts.Faults; !inj.Empty() {
		adj, ferr := inj.Wrap(func(_, _ int) float64 { return seconds })(0, req.Row1-req.Row0, req.Round)
		switch {
		case errors.Is(ferr, faults.ErrCrashed):
			w.logger.Error("fault plan: crashing", slog.Int("round", req.Round))
			if w.opts.CrashFn != nil {
				w.opts.CrashFn()
			}
			http.Error(rw, `{"error":"worker crashed"}`, http.StatusInternalServerError)
			return
		case errors.Is(ferr, faults.ErrStalled):
			http.Error(rw, `{"error":"worker stalled"}`, http.StatusServiceUnavailable)
			return
		case ferr != nil:
			http.Error(rw, fmt.Sprintf(`{"error":%q}`, ferr.Error()), http.StatusInternalServerError)
			return
		case adj > seconds:
			time.Sleep(time.Duration((adj - seconds) * float64(time.Second)))
			seconds = adj
		}
	}

	resp := ShardResponse{
		Job: req.Job, Worker: w.opts.Name,
		Row0: req.Row0, Row1: req.Row1,
		Seconds:  seconds,
		Checksum: bandChecksum(c),
	}
	if req.ReturnResult {
		resp.Result = encodeBand(c)
	}
	rw.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(rw).Encode(&resp)
	w.logger.Debug("shard executed",
		slog.String("job", req.Job), slog.Int("row0", req.Row0), slog.Int("row1", req.Row1),
		slog.Float64("seconds", seconds))
}

// executeGemm computes rows [Row0,Row1) of C = A·B with the packed kernel
// and returns that band of C and the measured kernel seconds (operand
// generation excluded: the FPM models compute speed, and generation cost is
// constant per round, not per unit).
// Only A's band and B are generated, A's with FillRandomAt, so a shard's
// operands cost its band, not the whole job.
// Bit-determinism: operands are generated from the seed, and the config is
// blas.DefaultConfig, whose AVX2 and AVX-512 tiles agree bit for bit, so
// any process replaying the same shard on an FMA-capable CPU (or on any
// CPU without one) produces identical bytes.
func executeGemm(req *ShardRequest, workers int) (*matrix.Dense, float64, error) {
	band := req.Row1 - req.Row0
	a, err := matrix.New(band, req.K)
	if err != nil {
		return nil, 0, err
	}
	b, err := matrix.New(req.K, req.N)
	if err != nil {
		return nil, 0, err
	}
	c, err := matrix.New(band, req.N)
	if err != nil {
		return nil, 0, err
	}
	a.FillRandomAt(req.Seed, req.Row0)
	b.FillRandom(req.Seed + 1)
	start := time.Now()
	if err := blas.GemmPacked(1, a, b, 0, c, blas.DefaultConfig, workers); err != nil {
		return nil, 0, err
	}
	return c, time.Since(start).Seconds(), nil
}

// littleEndian reports whether float32 memory is already in wire order.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// wireRow returns row as float32 little-endian bytes. On little-endian
// targets those are the row's own memory, returned without a copy; elsewhere
// the row is encoded into *scratch, which grows on first use.
func wireRow(row []float32, scratch *[]byte) []byte {
	if littleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(row))), 4*len(row))
	}
	if len(*scratch) < 4*len(row) {
		*scratch = make([]byte, 4*len(row))
	}
	encodeRow(*scratch, row)
	return (*scratch)[:4*len(row)]
}

// encodeRow writes row as float32 little-endian bytes into dst[:4·len(row)]:
// wireRow's big-endian fallback.
func encodeRow(dst []byte, row []float32) {
	for j, v := range row {
		binary.LittleEndian.PutUint32(dst[4*j:], math.Float32bits(v))
	}
}

// encodeBand serializes a compact (stride == cols) or strided band to
// row-major float32 little-endian bytes.
func encodeBand(c *matrix.Dense) []byte {
	w := 4 * c.Cols
	buf := make([]byte, w*c.Rows)
	var scratch []byte
	for i := 0; i < c.Rows; i++ {
		copy(buf[i*w:], wireRow(c.Data[i*c.Stride:i*c.Stride+c.Cols], &scratch))
	}
	return buf
}

// bandChecksum is checksumBytes(encodeBand(c)), computed row by row over the
// rows' wire bytes so a band that is not shipped is never encoded whole.
func bandChecksum(c *matrix.Dense) uint32 {
	var scratch []byte
	var sum uint32
	for i := 0; i < c.Rows; i++ {
		sum = crc32.Update(sum, castagnoli, wireRow(c.Data[i*c.Stride:i*c.Stride+c.Cols], &scratch))
	}
	return sum
}

// decodeBand is encodeBand's inverse into rows×cols.
func decodeBand(p []byte, rows, cols int) (*matrix.Dense, error) {
	if len(p) != 4*rows*cols {
		return nil, fmt.Errorf("workerd: band payload %d bytes, want %d (%dx%d float32)", len(p), 4*rows*cols, rows, cols)
	}
	m, err := matrix.New(rows, cols)
	if err != nil {
		return nil, err
	}
	for i := range m.Data {
		m.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return m, nil
}

// SelfCalibrate times the local packed kernel on a ladder of row-band sizes
// of a reference Rows×K×N job and returns the measured FPM (speed in
// rows/second). This seeds the worker's served model at registration; the
// /v1/observe loop refines it from real shard timings afterwards.
func SelfCalibrate(bands []int, k, n, workers int) (*fpm.PiecewiseLinear, error) {
	if len(bands) == 0 {
		return nil, errors.New("workerd: no calibration band sizes")
	}
	bands = append([]int(nil), bands...)
	sort.Ints(bands)
	for _, b := range bands {
		if b <= 0 {
			return nil, fmt.Errorf("workerd: invalid calibration band %d", b)
		}
	}
	maxBand := bands[len(bands)-1]
	a, err := matrix.New(maxBand, k)
	if err != nil {
		return nil, err
	}
	b, err := matrix.New(k, n)
	if err != nil {
		return nil, err
	}
	a.FillRandom(1)
	b.FillRandom(2)
	samples := make([]fpm.TimeSample, 0, len(bands))
	for _, band := range bands {
		av, err := a.View(0, 0, band, k)
		if err != nil {
			return nil, err
		}
		c, err := matrix.New(band, n)
		if err != nil {
			return nil, err
		}
		// One warmup, then the timed run — first-touch page faults otherwise
		// dominate small bands.
		if err := blas.GemmPacked(1, av, b, 0, c, blas.DefaultConfig, workers); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := blas.GemmPacked(1, av, b, 0, c, blas.DefaultConfig, workers); err != nil {
			return nil, err
		}
		sec := time.Since(start).Seconds()
		if sec <= 0 {
			sec = 1e-9 // quantized clock floor
		}
		samples = append(samples, fpm.TimeSample{Size: float64(band), Seconds: sec})
	}
	return fpm.FromTimings(samples)
}

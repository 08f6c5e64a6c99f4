package workerd

import (
	"bufio"
	"context"
	"encoding/base64"
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
	"strconv"
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
	// The wire puts checksum and seconds ahead of the result, so a shipped
	// band is held whole until they are known; an unshipped shard holds one
	// block.
	var band *matrix.Dense
	if req.ReturnResult {
		var err error
		if band, err = matrix.New(req.Row1-req.Row0, req.N); err != nil {
			http.Error(rw, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusInternalServerError)
			return
		}
	}
	var sum uint32
	seconds, err := gemmBlocks(&req, w.opts.Workers, band, func(blk *matrix.Dense) {
		sum = updateChecksum(sum, blk)
	})
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
			delay(time.Duration((adj - seconds) * float64(time.Second)))
			seconds = adj
		}
	}

	resp := ShardResponse{
		Job: req.Job, Worker: w.opts.Name,
		Row0: req.Row0, Row1: req.Row1,
		Seconds:  seconds,
		Checksum: sum,
	}
	rw.Header().Set("Content-Type", "application/json")
	// A failed write leaves the coordinator a short body, which it rejects.
	if req.ReturnResult {
		_ = writeShipped(rw, &resp, band)
	} else {
		_ = json.NewEncoder(rw).Encode(&resp)
	}
	w.logger.Debug("shard executed",
		slog.String("job", req.Job), slog.Int("row0", req.Row0), slog.Int("row1", req.Row1),
		slog.Float64("seconds", seconds))
}

// blockRows is the most rows of C a shard computes at once: four of the
// kernel's mc-row blocks, 1024 rows on the AVX-512 and scalar tiles and 1032
// on AVX2. Four blocks keep four kernel goroutines busy, and an unshipped
// shard holds one block of C whatever its share.
var blockRows = 4 * blas.DefaultConfig.MC

// gemmBlocks computes rows [Row0,Row1) of req's C = A·B with the packed
// kernel, blockRows rows at a time, and hands each finished block to done
// (if not nil) in row order. The blocks go into buf: if it holds all
// Row1−Row0 rows (a shipped band), each block is a view of its own rows;
// otherwise every block reuses buf's top rows, so done must not keep it.
// With buf nil a block buffer is allocated. A and B are seeded operands: the
// kernel generates each block's A window and B as it packs them, so B is
// generated again for every block. The seconds sum the blocks' generation
// plus kernel time, not done's — the paper's g_i, which includes moving a
// device's operands.
//
// Bit-determinism: a C element's FMA chain runs over k in the same order
// whatever the row blocking, operands are generated from the seed, and the
// config is blas.DefaultConfig, whose AVX2 and AVX-512 tiles agree bit for
// bit, so any process replaying the same shard on an FMA-capable CPU (or on
// any CPU without one) produces identical bytes, in one block or many.
func gemmBlocks(req *ShardRequest, workers int, buf *matrix.Dense, done func(blk *matrix.Dense)) (float64, error) {
	rows := req.Row1 - req.Row0
	if buf == nil {
		var err error
		if buf, err = matrix.New(min(blockRows, rows), req.N); err != nil {
			return 0, err
		}
	}
	if buf.Cols != req.N || buf.Rows < min(blockRows, rows) {
		return 0, fmt.Errorf("workerd: %dx%d buffer too small for %d-row blocks of %d columns", buf.Rows, buf.Cols, min(blockRows, rows), req.N)
	}
	whole := buf.Rows >= rows
	b := matrix.Seeded{Seed: req.Seed + 1, Width: req.N, Rows: req.K, Cols: req.N}
	var seconds float64
	c := new(matrix.Dense) // each block's rows of buf in turn, one allocation for all
	for i0 := 0; i0 < rows; i0 += blockRows {
		h := min(blockRows, rows-i0)
		lo := 0
		if whole {
			lo = i0 * buf.Stride
		}
		hi := lo + (h-1)*buf.Stride + req.N
		*c = matrix.Dense{Rows: h, Cols: req.N, Stride: buf.Stride, Data: buf.Data[lo:hi:hi]}
		a := matrix.Seeded{Seed: req.Seed, Width: req.K, Row0: req.Row0 + i0, Rows: h, Cols: req.K}
		start := time.Now()
		if err := blas.GemmPacked(1, a, b, 0, c, blas.DefaultConfig, workers); err != nil {
			return 0, err
		}
		seconds += time.Since(start).Seconds()
		if done != nil {
			done(c)
		}
	}
	return seconds, nil
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

// writeShipped writes resp with c's band as its result: the bytes
// json.Encoder writes for resp with Result set to the band's wire bytes,
// streamed row by row through a base64 encoder so the band is never held
// encoded. encoding/json pools its encode buffers with no size cap, so
// encoding a band through it would leave a buffer of the band's base64 size
// alive for every later JSON encode in the process.
func writeShipped(rw http.ResponseWriter, resp *ShardResponse, c *matrix.Dense) error {
	head, err := json.Marshal(resp) // Result is nil, so omitted
	if err != nil {
		return err
	}
	head = append(head[:len(head)-1], `,"result":"`...)
	const tail = "\"}\n"
	size := len(head) + base64.StdEncoding.EncodedLen(bandBytes(c.Rows, c.Cols)) + len(tail)
	rw.Header().Set("Content-Length", strconv.Itoa(size))
	// A bufio.Writer keeps its first write error and the base64 encoder
	// passes it on, so the writes below go unchecked and Flush reports it.
	bw := bufio.NewWriterSize(rw, 64<<10)
	_, _ = bw.Write(head)
	enc := base64.NewEncoder(base64.StdEncoding, bw)
	var scratch []byte
	for i := 0; i < c.Rows; i++ {
		_, _ = enc.Write(wireRow(c.Data[i*c.Stride:i*c.Stride+c.Cols], &scratch))
	}
	_ = enc.Close()
	_, _ = bw.WriteString(tail)
	return bw.Flush()
}

// updateChecksum folds c's wire bytes into the CRC-32C sum, row by row, so
// a band is never encoded whole.
func updateChecksum(sum uint32, c *matrix.Dense) uint32 {
	var scratch []byte
	for i := 0; i < c.Rows; i++ {
		sum = crc32.Update(sum, castagnoli, wireRow(c.Data[i*c.Stride:i*c.Stride+c.Cols], &scratch))
	}
	return sum
}

// SelfCalibrate times the local packed kernel on a ladder of row-band sizes
// of a reference job (seed 1, depth k, n columns) and returns the measured
// FPM (speed in rows/second). Each band runs as an unshipped shard does,
// through gemmBlocks: on seeded operands, one block of C at a time, so the
// time covers generation plus kernel. This seeds the worker's served model
// at registration; the /v1/observe loop refines it from real shard timings
// afterwards.
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
	samples := make([]fpm.TimeSample, 0, len(bands))
	for _, band := range bands {
		req := &ShardRequest{Seed: 1, Rows: band, K: k, N: n, Row0: 0, Row1: band}
		blk, err := matrix.New(min(blockRows, band), n)
		if err != nil {
			return nil, err
		}
		// One warmup, then the timed run into the same block buffer —
		// first-touch page faults otherwise dominate small bands.
		if _, err := gemmBlocks(req, workers, blk, nil); err != nil {
			return nil, err
		}
		sec, err := gemmBlocks(req, workers, blk, nil)
		if err != nil {
			return nil, err
		}
		if sec <= 0 {
			sec = 1e-9 // quantized clock floor
		}
		samples = append(samples, fpm.TimeSample{Size: float64(band), Seconds: sec})
	}
	return fpm.FromTimings(samples)
}

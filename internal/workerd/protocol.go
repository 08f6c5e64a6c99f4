// Package workerd turns fpmd's cluster/comm layers from a simulation into a
// distributed executor: real worker processes (cmd/fpmworker) register with
// fpmd, heartbeat, execute partitioned GEMM shards on their local packed
// internal/blas kernel, and stream per-shard timings back.
//
// The package has two halves, joined only by the HTTP wire protocol below:
//
//   - Worker: the worker-process side. Serves shard execution
//     (POST /worker/v1/shard), the reachability probe fpmd runs at
//     registration (GET /healthz), and a self-calibration that times the
//     local kernel to seed the worker's functional performance model.
//
//   - Pool + Executor: the fpmd side. The Pool tracks registered workers
//     (liveness from heartbeats plus a TTL janitor). The Executor
//     partitions a job over the live workers with partition.FPM on their
//     *served* models — so online refinement of those models changes the
//     next partition — dispatches the shards concurrently, feeds the
//     observed shard timings back through an Observer (the /v1/observe
//     refinement loop), and re-partitions the residual among survivors when
//     a shard request fails or a heartbeat lapses mid-job. The wire is not
//     modelled beside the speed function: it belongs in the observed shard
//     time, as the paper folds PCIe transfer into a GPU's speed.
//
// Determinism contract: a GEMM shard is rows [Row0,Row1) of C = A·B where A
// (Rows×K) and B (K×N) are defined by the job seed through the seekable
// generator behind matrix.Seeded. A worker's kernel generates only A's
// [Row0,Row1) band and B, block by block as it packs them, bit-identical to
// the same blocks of the whole operands; it holds only C's band. The packed
// kernels are bit-deterministic for a given shard shape (parallel ==
// sequential; the AVX2 and AVX-512 tiles agree bit for bit), so on a fleet
// whose workers all have the FMA tiles, or all lack them, the gathered C is
// bit-identical to a local GemmPacked reference replaying the same shard
// boundaries — which is exactly what cmd/fpmworker's TestWorkersEndToEnd
// asserts after killing a worker mid-run.
package workerd

import (
	"fmt"
	"hash/crc32"
	"time"
)

// Worker-side routes (served by Worker.Handler, mounted by cmd/fpmworker).
const (
	// ShardPath executes one shard and returns its timing (and, on request,
	// the raw result band).
	ShardPath = "/worker/v1/shard"
	// InfoPath reports the worker's static facts (name, cores, kernel).
	InfoPath = "/worker/v1/info"
)

// ShardRequest is the body of POST /worker/v1/shard: one contiguous band of
// the row dimension of C = A·B.
type ShardRequest struct {
	// Job identifies the execute call (for logs and tracing).
	Job string `json:"job"`
	// Seed defines the operands: A = FillRandom(Seed), B = FillRandom(Seed+1).
	// The worker materialises neither: its kernel generates A's band and B
	// as seeded windows, block by block into the packing panels.
	Seed int64 `json:"seed"`
	// Rows, K, N are the full problem dimensions: C is Rows×N, A is Rows×K,
	// B is K×N.
	Rows int `json:"rows"`
	K    int `json:"k"`
	N    int `json:"n"`
	// Row0, Row1 bound this shard's band: rows [Row0, Row1) of C.
	Row0 int `json:"row0"`
	Row1 int `json:"row1"`
	// Round is the execute round this shard belongs to (the fault plan's
	// iteration index on the worker side).
	Round int `json:"round"`
	// ReturnResult asks for the raw result band bytes (float32 little-endian,
	// row-major) so the coordinator can gather and verify. When false only
	// the checksum travels back.
	ReturnResult bool `json:"return_result,omitempty"`
}

// Validate reports malformed shard requests. A shard is valid only as a band
// of a job the executor accepts, so its job's operands are bounded too.
func (r *ShardRequest) Validate() error {
	if r.Rows <= 0 || r.N <= 0 {
		return fmt.Errorf("workerd: invalid dimensions rows=%d n=%d", r.Rows, r.N)
	}
	if r.K <= 0 {
		return fmt.Errorf("workerd: invalid gemm depth k=%d", r.K)
	}
	if r.Row0 < 0 || r.Row1 > r.Rows || r.Row0 >= r.Row1 {
		return fmt.Errorf("workerd: invalid band [%d,%d) of %d rows", r.Row0, r.Row1, r.Rows)
	}
	return checkOperands(r.Rows, r.K, r.N)
}

// maxOperandElems bounds each operand of a job — A, B and C — and so every
// band of them a worker allocates: no request can make a worker allocate
// past what a process survives (an out-of-memory runtime error cannot be
// recovered).
const maxOperandElems = 1 << 28

// checkOperands rejects a rows×k×n job whose A, B or C would exceed
// maxOperandElems. Every argument must be positive.
func checkOperands(rows, k, n int) error {
	for _, op := range []struct {
		name       string
		rows, cols int
	}{{"A", rows, k}, {"B", k, n}, {"C", rows, n}} {
		if op.rows > maxOperandElems/op.cols {
			return fmt.Errorf("workerd: %s of %d×%d exceeds %d elements", op.name, op.rows, op.cols, maxOperandElems)
		}
	}
	return nil
}

// ShardResponse is the worker's answer: the measured seconds (operand
// generation plus kernel) and a checksum of the result band (plus the band
// itself when requested).
type ShardResponse struct {
	Job     string  `json:"job"`
	Worker  string  `json:"worker"`
	Row0    int     `json:"row0"`
	Row1    int     `json:"row1"`
	Seconds float64 `json:"seconds"`
	// Checksum is the CRC-32C of the result band bytes (float32
	// little-endian, row-major) — sent whether or not the band is, so the
	// coordinator can check a shipped band against it.
	Checksum uint32 `json:"checksum"`
	// Result is the band's float32 little-endian bytes (JSON base64), present
	// only when the request set ReturnResult.
	Result []byte `json:"result,omitempty"`
}

// Registration is the body of POST /v1/workers (worker → fpmd): the worker
// advertises where it listens and the functional performance model its
// self-calibration measured.
type Registration struct {
	// Name keys the worker in the pool AND names its model in fpmd's model
	// registry (so /v1/observe refinement targets it). Must be a valid model
	// id.
	Name string `json:"name"`
	// URL is the worker's base URL (scheme + host:port).
	URL string `json:"url"`
	// Cores is the worker's kernel parallelism (informational).
	Cores int `json:"cores"`
	// Model is the fpm JSON wire form of the self-calibrated FPM
	// (speed in rows/second over band sizes).
	Model []byte `json:"model"`
}

// WorkerInfo is one pool entry as served by GET /v1/workers.
type WorkerInfo struct {
	Name       string    `json:"name"`
	URL        string    `json:"url"`
	Cores      int       `json:"cores"`
	Alive      bool      `json:"alive"`
	Generation uint64    `json:"model_generation"`
	LastSeen   time.Time `json:"last_seen"`
	// Shards and Failures count dispatches to this worker since registration.
	Shards   int64 `json:"shards"`
	Failures int64 `json:"failures"`
}

// castagnoli is the CRC-32C table; hash/crc32 computes it with the CPU's
// CRC instructions where there are any.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksumBytes is the band checksum both sides compute: CRC-32C over the
// raw float32 little-endian bytes.
func checksumBytes(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

package bench

import (
	"fmt"
	"math"
	"sync"
	"time"

	"fpmpart/internal/blas"
	"fpmpart/internal/matrix"
)

// BatchGEMMKernel times the batched small-GEMM engine with the wall
// clock: the problem size x is the number of same-shape Dim×Dim items in
// the batch, all multiplying against one shared B (the serving pattern —
// many activations, one weight matrix). It produces a functional
// performance model of batch throughput, complementing RealGEMMKernel's
// model of one large rank-b update.
type BatchGEMMKernel struct {
	// Dim is the edge of each item's square operands.
	Dim int
	// Workers is passed through to GemmBatch (0 = GOMAXPROCS).
	Workers int
	// MaxItems bounds the measurable batch size (0 = unbounded).
	MaxItems float64

	// mu serialises Run, for the reason RealGEMMKernel.mu does.
	mu sync.Mutex
	// cached operands, grown on demand so allocation stays out of the
	// timed section.
	items []blas.BatchItem
	b     *matrix.Dense
}

// Name implements Kernel.
func (k *BatchGEMMKernel) Name() string {
	return fmt.Sprintf("go-gemm-batch-d%d-w%d", k.Dim, k.Workers)
}

// MaxSize implements Kernel.
func (k *BatchGEMMKernel) MaxSize() float64 { return k.MaxItems }

// Run implements Kernel: one GemmBatch of round(x) items.
func (k *BatchGEMMKernel) Run(x float64) (float64, error) {
	if k.Dim <= 0 {
		return 0, fmt.Errorf("bench: invalid batch item dim %d", k.Dim)
	}
	if x <= 0 {
		return 0, fmt.Errorf("bench: invalid size %v", x)
	}
	n := int(math.Round(x))
	if n < 1 {
		n = 1
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	k.ensure(n)
	start := time.Now()
	if err := blas.GemmBatch(k.items[:n], k.Workers); err != nil {
		return 0, err
	}
	elapsed := time.Since(start).Seconds()
	// Rescale to the exact requested (fractional) batch size, as the
	// other kernels do for their rounded rectangles.
	return elapsed * x / float64(n), nil
}

// ensure grows the cached batch to at least n items.
func (k *BatchGEMMKernel) ensure(n int) {
	if k.b == nil {
		k.b = matrix.MustNew(k.Dim, k.Dim)
		k.b.FillRandom(2)
	}
	for len(k.items) < n {
		a := matrix.MustNew(k.Dim, k.Dim)
		a.FillRandom(int64(3 + len(k.items)))
		k.items = append(k.items, blas.BatchItem{
			Alpha: 1, A: a, B: k.b, Beta: 0, C: matrix.MustNew(k.Dim, k.Dim),
		})
	}
}

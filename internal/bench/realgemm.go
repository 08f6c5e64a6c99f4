package bench

import (
	"fmt"
	"sync"
	"time"

	"fpmpart/internal/blas"
	"fpmpart/internal/matrix"
)

// RealGEMMKernel times the pure-Go blocked GEMM with the wall clock: the
// problem size x is the area of the C rectangle in b×b blocks, exactly the
// computational kernel of the paper's application (one rank-b update of a
// near-square C rectangle). It lets the same model-building pipeline that
// drives the simulated experiments produce a *real* functional performance
// model of the host machine.
type RealGEMMKernel struct {
	// BlockSize is the blocking factor b in elements.
	BlockSize int
	// Workers is the number of goroutines (1 benchmarks a single "core").
	Workers int
	// MaxBlocks bounds the measurable problem size (0 = unbounded); use it
	// to keep host memory use sane.
	MaxBlocks float64

	// mu serialises Run: BuildModel measures grid points from several
	// goroutines, and a wall-clock measurement wants the machine — and the
	// cached operands — to itself.
	mu sync.Mutex
	// cached operands, grown on demand so allocation stays out of the
	// timed section.
	a, b, c *matrix.Dense
}

// Name implements Kernel.
func (k *RealGEMMKernel) Name() string {
	return fmt.Sprintf("go-gemm-b%d-w%d", k.BlockSize, k.Workers)
}

// MaxSize implements Kernel.
func (k *RealGEMMKernel) MaxSize() float64 { return k.MaxBlocks }

// Run implements Kernel: one rank-b update of a √x·b × √x·b rectangle of C.
func (k *RealGEMMKernel) Run(x float64) (float64, error) {
	if k.BlockSize <= 0 {
		return 0, fmt.Errorf("bench: invalid block size %d", k.BlockSize)
	}
	if x <= 0 {
		return 0, fmt.Errorf("bench: invalid size %v", x)
	}
	rows, cols := nearSquare(x)
	bs := k.BlockSize
	k.mu.Lock()
	defer k.mu.Unlock()
	if err := k.ensure(rows*bs, cols*bs); err != nil {
		return 0, err
	}
	av, err := k.a.View(0, 0, rows*bs, bs)
	if err != nil {
		return 0, err
	}
	bv, err := k.b.View(0, 0, bs, cols*bs)
	if err != nil {
		return 0, err
	}
	cv, err := k.c.View(0, 0, rows*bs, cols*bs)
	if err != nil {
		return 0, err
	}
	workers := k.Workers
	if workers <= 0 {
		workers = 1
	}
	start := time.Now()
	if err := blas.GemmParallel(1, av, bv, 1, cv, workers); err != nil {
		return 0, err
	}
	elapsed := time.Since(start).Seconds()
	// Rescale to the exact requested area, as the simulated GPU kernel
	// does for its near-square rectangles.
	return elapsed * x / (float64(rows) * float64(cols)), nil
}

// ensure grows the cached operands to at least the requested dimensions.
func (k *RealGEMMKernel) ensure(rowsE, colsE int) error {
	need := func(m *matrix.Dense, r, c int) bool {
		return m == nil || m.Rows < r || m.Cols < c
	}
	if need(k.a, rowsE, k.BlockSize) {
		m, err := matrix.New(rowsE, k.BlockSize)
		if err != nil {
			return err
		}
		m.FillRandom(1)
		k.a = m
	}
	if need(k.b, k.BlockSize, colsE) {
		m, err := matrix.New(k.BlockSize, colsE)
		if err != nil {
			return err
		}
		m.FillRandom(2)
		k.b = m
	}
	if need(k.c, rowsE, colsE) {
		m, err := matrix.New(rowsE, colsE)
		if err != nil {
			return err
		}
		k.c = m
	}
	return nil
}

package app

import (
	"fmt"
	"sync"
	"time"

	"fpmpart/internal/blas"
	"fpmpart/internal/layout"
	"fpmpart/internal/matrix"
)

// RealResult reports a real (actually computed) run.
type RealResult struct {
	// PerProcessSeconds is each process's accumulated GEMM time.
	PerProcessSeconds []float64
	// WallSeconds is the total elapsed time.
	WallSeconds float64
	// Iterations is the number of pivot steps executed.
	Iterations int
}

// RunReal executes the heterogeneous column-based blocked matrix
// multiplication for real. Only its tests call it; whether it stays is for
// the change that folds the simulated application stack. It computes
// C += A·B, where the three N×N matrices
// (N = bl.N × b elements) are partitioned according to bl, one goroutine
// per rectangle standing in for an MPI process. At each iteration k the
// pivot column A(:,k) and pivot row B(k,:) are "broadcast" (shared via
// views — the algorithm only reads them) and every process updates its
// rectangle of C with one GEMM call, followed by a barrier.
//
// The result is bit-for-bit the blocked product; tests verify it against a
// direct GEMM. It returns per-process compute times, which on a real
// heterogeneous machine would be the input to FPM construction.
//
// The goroutines all run at the host CPU's speed, so slowdowns (one factor
// >= 1 per rectangle of bl) emulate slower devices: a process with slowdown
// s sleeps after each step until the step took s times its compute time,
// giving it 1/s of the host kernel's speed. A factor of 1 is unmodified.
func RunReal(bl *layout.BlockLayout, b int, a, bm, c *matrix.Dense, slowdowns []float64) (RealResult, error) {
	if b <= 0 {
		return RealResult{}, fmt.Errorf("app: invalid block size %d", b)
	}
	if err := bl.Validate(); err != nil {
		return RealResult{}, err
	}
	if len(slowdowns) != len(bl.Rects) {
		return RealResult{}, fmt.Errorf("app: %d slowdowns for %d rectangles", len(slowdowns), len(bl.Rects))
	}
	for i, s := range slowdowns {
		if s < 1 {
			return RealResult{}, fmt.Errorf("app: slowdown %v < 1 at process %d", s, i)
		}
	}
	n := bl.N
	dim := n * b
	for name, m := range map[string]*matrix.Dense{"A": a, "B": bm, "C": c} {
		if m == nil || m.Rows != dim || m.Cols != dim {
			return RealResult{}, fmt.Errorf("app: matrix %s must be %dx%d", name, dim, dim)
		}
	}

	res := RealResult{PerProcessSeconds: make([]float64, len(bl.Rects)), Iterations: n}
	start := time.Now()
	var mu sync.Mutex
	for k := 0; k < n; k++ {
		var wg sync.WaitGroup
		errs := make([]error, len(bl.Rects))
		for i, r := range bl.Rects {
			if r.W == 0 || r.H == 0 {
				continue
			}
			wg.Add(1)
			go func(i int, r layout.Rect) {
				defer wg.Done()
				t0 := time.Now()
				// A's pivot sub-column for this rectangle's rows.
				av, err := a.View(int(r.Y)*b, k*b, int(r.H)*b, b)
				if err != nil {
					errs[i] = err
					return
				}
				// B's pivot sub-row for this rectangle's columns.
				bv, err := bm.View(k*b, int(r.X)*b, b, int(r.W)*b)
				if err != nil {
					errs[i] = err
					return
				}
				cv, err := c.View(int(r.Y)*b, int(r.X)*b, int(r.H)*b, int(r.W)*b)
				if err != nil {
					errs[i] = err
					return
				}
				// Each "process" is one rank: single-threaded packed GEMM
				// on its strided C rectangle.
				if errs[i] = blas.GemmPacked(1, av, bv, 1, cv, blas.DefaultConfig, 1); errs[i] != nil {
					return
				}
				if s := slowdowns[i]; s > 1 {
					time.Sleep(time.Duration(float64(time.Since(t0)) * (s - 1)))
				}
				mu.Lock()
				res.PerProcessSeconds[i] += time.Since(t0).Seconds()
				mu.Unlock()
			}(i, r)
		}
		wg.Wait() // barrier: the broadcast of iteration k+1 awaits all updates
		for _, err := range errs {
			if err != nil {
				return RealResult{}, err
			}
		}
	}
	res.WallSeconds = time.Since(start).Seconds()
	return res, nil
}

// Imbalance returns max/min - 1 over the processes that recorded time.
func (r RealResult) Imbalance() float64 {
	lo, hi := -1.0, 0.0
	for _, s := range r.PerProcessSeconds {
		if s <= 0 {
			continue
		}
		if lo < 0 || s < lo {
			lo = s
		}
		if s > hi {
			hi = s
		}
	}
	if lo <= 0 {
		return 0
	}
	return hi/lo - 1
}

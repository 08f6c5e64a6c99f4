package app

import (
	"fmt"
	"sync"
	"time"

	"fpmpart/internal/blas"
	"fpmpart/internal/layout"
	"fpmpart/internal/matrix"
)

// Real heterogeneous execution: the goroutine processes of RunReal all run
// at the host CPU's speed, so to exercise the full FPM loop — benchmark,
// model, partition, execute — against *real* computation with *real*
// heterogeneity, RunRealRateLimited slows each process down by a
// per-process factor (sleeping in proportion to its compute time, the
// standard technique for emulating slower devices). A process with slowdown
// s has effective speed 1/s of the host kernel; slowdown 1 is unmodified.

// RunRealRateLimited executes the column-based blocked multiplication like
// RunReal, with per-process slowdown factors (len must match the layout's
// rectangles; every factor >= 1).
func RunRealRateLimited(bl *layout.BlockLayout, b int, a, bm, c *matrix.Dense, slowdowns []float64) (RealResult, error) {
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
				av, err := a.View(int(r.Y)*b, k*b, int(r.H)*b, b)
				if err != nil {
					errs[i] = err
					return
				}
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
				if errs[i] = blas.GemmPacked(1, av, bv, 1, cv, blas.DefaultConfig, 1); errs[i] != nil {
					return
				}
				// Emulate a slower device: stretch the step to slowdown ×
				// the compute time.
				compute := time.Since(t0)
				if s := slowdowns[i]; s > 1 {
					time.Sleep(time.Duration(float64(compute) * (s - 1)))
				}
				mu.Lock()
				res.PerProcessSeconds[i] += time.Since(t0).Seconds()
				mu.Unlock()
			}(i, r)
		}
		wg.Wait()
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

// Package par is the bounded worker pool shared by the model builders and
// the experiment drivers. Building functional performance models is the
// dominant cost of the paper's methodology (Section V: repeat-until-reliable
// measurement at every grid point), and most of that work — grid points,
// devices, experiment units — is embarrassingly parallel. The pool keeps the
// fan-out bounded and preserves sequential error semantics: the error
// returned is always the one a sequential loop would have hit first.
//
// Determinism is the callers' contract: tasks write into index-addressed
// slots and derive any randomness from per-task seeds (see
// stats.Noise.ForPoint), so results are bit-identical at any worker count.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested pool width: 0 selects GOMAXPROCS, anything
// below 1 is clamped to 1. Negative requests should be rejected with an
// error before reaching the pool; this clamp is a safety net only.
func Workers(requested int) int {
	if requested == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if requested < 1 {
		return 1
	}
	return requested
}

// ForEach runs fn(0) … fn(n-1) on at most workers goroutines (workers <= 1
// runs inline) and returns the lowest-index error, which is exactly the
// error a sequential loop would return first: indices are handed out in
// order, so every index below a failing one has already been claimed, and
// once a task fails no new indices are started.
func ForEach(workers, n int, fn func(i int) error) error {
	if n <= 0 || fn == nil {
		return nil
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if errs[i] = fn(i); errs[i] != nil {
				break
			}
		}
	} else {
		var next atomic.Int64
		var aborted atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= n || aborted.Load() {
						return
					}
					if err := fn(i); err != nil {
						errs[i] = err
						aborted.Store(true)
					}
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

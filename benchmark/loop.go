package main

import (
	"sync"
	"time"
)

// window is the outcome of one timed closed loop.
type window struct {
	// slices holds the latencies, in seconds, of the successful operations
	// completed in each of the window's equal parts.
	slices    [][]float64
	attempted int
	failed    int
	elapsed   float64 // seconds
	firstErr  error
}

// lats returns every latency of the window.
func (w window) lats() []float64 {
	var all []float64
	for _, s := range w.slices {
		all = append(all, s...)
	}
	return all
}

// closedLoop runs clients goroutines for d, cut into k equal parts. Each
// client calls op again as soon as its previous call returned: the callers
// this models are schedulers and executors that wait for the answer before
// they act. op reports the operation's latency, or an error for a failed or
// wrong answer; skip marks a call that is part of the traffic but not of the
// latency sample (a write among reads).
func closedLoop(clients int, d time.Duration, k int, op func(client, i int) (lat time.Duration, skip bool, err error)) window {
	// per[c][s] is client c's sample of slice s: no client touches another's,
	// and nothing is copied as the sample grows past a few thousand.
	per := make([][][]float64, clients)
	var mu sync.Mutex
	w := window{slices: make([][]float64, k)}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		per[c] = make([][]float64, k)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			attempted, failed := 0, 0
			var firstErr error
			for i := 0; time.Since(start) < d; i++ {
				lat, skip, err := op(c, i)
				attempted++
				switch {
				case err != nil:
					failed++
					if firstErr == nil {
						firstErr = err
					}
				case !skip:
					// An operation that ends after the window belongs to
					// its last part.
					s := min(int(time.Since(start)*time.Duration(k)/d), k-1)
					per[c][s] = append(per[c][s], lat.Seconds())
				}
			}
			mu.Lock()
			w.attempted += attempted
			w.failed += failed
			if w.firstErr == nil {
				w.firstErr = firstErr
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	w.elapsed = time.Since(start).Seconds()
	for s := range w.slices {
		for c := range per {
			w.slices[s] = append(w.slices[s], per[c][s]...)
		}
	}
	return w
}

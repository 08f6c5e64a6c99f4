package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// A span is one call the benchmark made into a layer's public surface.
// Name is "<layer>.<call>"; the layer is the repo module the time is
// charged to. Spans of one request share Request.
//
// The benchmark sits outside the program, so it cannot see a callee start
// inside a caller. It re-enacts instead: after timing an outer call it makes
// the inner call itself, on the same input, and links it to the outer span
// as Parent. A re-enacted child therefore lies after its parent in time;
// only calls the benchmark itself fans out (the concurrent shard POSTs) lie
// inside their parent.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // -1 for a request's root
	Request int     `json:"request"`
	Name    string  `json:"name"`
	Start   float64 `json:"start_us"`
	End     float64 `json:"end_us"`
}

func (s span) dur() float64 { return s.End - s.Start }

func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, parent, request int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name, Start: t.now()})
	return id
}

func (t *tracer) end(id int) {
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// call times f as one span.
func (t *tracer) call(name string, parent, request int, f func() error) (int, error) {
	id := t.begin(name, parent, request)
	err := f()
	t.end(id)
	return id, err
}

// childIndex maps each span id to its children.
func childIndex(spans []span) map[int][]span {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	return kids
}

// selfTimes walks the blocking path of the request rooted at root and
// returns the time charged to each layer on it, in microseconds; the values
// sum to at most root's duration. A span's self time is its duration minus
// what its children cover: children inside its interval cover the union of
// their intervals, re-enacted children (outside it) cover their durations.
// Of children that ran concurrently inside the parent only the last to end
// blocks the result, so the walk descends into that one and into every
// re-enacted child. Re-enactments are estimates: where they add up to more
// than the parent took, they are scaled down to fit it.
func selfTimes(kids map[int][]span, root span) map[string]float64 {
	inner := map[string]float64{}
	add := func(k span) {
		for layer, us := range selfTimes(kids, k) {
			inner[layer] += us
		}
	}
	var inside []span
	covered := 0.0
	for _, k := range kids[root.ID] {
		if k.Start >= root.Start && k.End <= root.End {
			inside = append(inside, k)
			continue
		}
		covered += k.dur()
		add(k)
	}
	if len(inside) > 0 {
		sort.Slice(inside, func(i, j int) bool { return inside[i].Start < inside[j].Start })
		reach := root.Start
		last := inside[0]
		for _, k := range inside {
			if k.End > reach {
				covered += k.End - math.Max(k.Start, reach)
				reach = k.End
			}
			if k.End > last.End {
				last = k
			}
		}
		add(last)
	}
	if covered > root.dur() {
		for layer := range inner {
			inner[layer] *= root.dur() / covered
		}
	}
	if self := root.dur() - covered; self > 0 {
		inner[root.layer()] += self
	}
	return inner
}

// layerShares reduces a trace to each layer's mean share of a request's
// root span. Shares lie in [0,1], so one stalled request cannot carry the
// mean away, and a layer only some requests touch (the forward hop) keeps
// its weight.
func layerShares(spans []span) map[string]float64 {
	sum := map[string]float64{}
	roots := 0
	kids := childIndex(spans)
	for _, s := range spans {
		if s.Parent != -1 || s.dur() <= 0 {
			continue
		}
		roots++
		for layer, us := range selfTimes(kids, s) {
			sum[layer] += us / s.dur()
		}
	}
	for layer := range sum {
		sum[layer] /= float64(roots)
	}
	return sum
}

// traceLoop re-enacts requests from clients goroutines until d has passed,
// the same concurrency as the untraced loop so that the two compare. Each
// call of one gets a request id no other call gets.
func traceLoop(clients int, d time.Duration, one func(client, request int) error) error {
	deadline := time.Now().Add(d)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; errs[c] == nil && (i == 0 || time.Now().Before(deadline)); i++ {
				errs[c] = one(c, c+clients*i)
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Note     string `json:"note"`
	Spans    []span `json:"spans"`
}

func writeTrace(path, workload string, seed int64, spans []span) error {
	data, err := json.Marshal(traceFile{
		Workload: workload, Seed: seed, Spans: spans,
		Note: "times in microseconds since the traced run began; a child outside its parent's interval is a re-enactment of the parent's inner call on the same input",
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// rename changes a span's name once the answer has told what the call was.
func (t *tracer) rename(id int, name string) {
	t.mu.Lock()
	t.spans[id].Name = name
	t.mu.Unlock()
}

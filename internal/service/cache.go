package service

import (
	"container/list"
	"context"
	"sync"
)

// solutionCache is a bounded LRU over computed partition responses. The
// partition solve is deterministic in (model set, n, options), so identical
// requests — the common case for a service fronting a fixed cluster — can be
// answered from memory. Keys embed each model's registry generation, so
// replacing a model invalidates its cached solutions by construction; the
// registry additionally purges them on every model write (purgeModel), so
// no cached answer outlives the model content it was solved against.
type solutionCache struct {
	mu  sync.Mutex
	max int
	ll  *list.List               // front = most recently used
	idx map[string]*list.Element // key -> element whose Value is *cacheEntry
}

type cacheEntry struct {
	key string
	val *partitionResponse
}

func newSolutionCache(max int) *solutionCache {
	if max < 1 {
		max = 1
	}
	return &solutionCache{max: max, ll: list.New(), idx: map[string]*list.Element{}}
}

func (c *solutionCache) get(key string) (*partitionResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.idx[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

func (c *solutionCache) put(key string, val *partitionResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[key]; ok {
		el.Value.(*cacheEntry).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.idx[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	for c.ll.Len() > c.max {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.idx, el.Value.(*cacheEntry).key)
	}
}

// purgeModel drops every answer solved against model id at a generation
// other than gen (gen 0: the model is gone, drop them all). Superseded
// entries can never be hit again — their key names the old generation — but
// in a cache this size they would not age out either: they would sit on
// memory until they displaced live entries. The scan under the lock runs
// once per model write (≈+17 µs on a ring PUT in the benchmark).
func (c *solutionCache) purgeModel(id string, gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*cacheEntry)
		for i, d := range e.val.Devices {
			if d.Model == id && e.val.ModelGens[i] != gen {
				c.ll.Remove(el)
				delete(c.idx, e.key)
				break
			}
		}
		el = next
	}
}

func (c *solutionCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// flightGroup coalesces concurrent identical solves (singleflight): when N
// requests with the same cache key arrive while the solution is being
// computed, one goroutine solves and the other N-1 wait for its result
// instead of burning N solver slots on identical work.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  *partitionResponse
	err  error
}

// doCtx runs fn once per key at a time. Followers wait for the leader's
// result but stop waiting when their own context expires. The boolean
// reports whether the result was shared from another caller's in-flight
// computation.
func (g *flightGroup) doCtx(ctx context.Context, key string, fn func() (*partitionResponse, error)) (*partitionResponse, error, bool) {
	g.mu.Lock()
	if g.calls == nil {
		g.calls = map[string]*flightCall{}
	}
	if c, ok := g.calls[key]; ok {
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, c.err, true
		case <-ctx.Done():
			return nil, ctx.Err(), true
		}
	}
	c := &flightCall{done: make(chan struct{})}
	g.calls[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()
	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, c.err, false
}

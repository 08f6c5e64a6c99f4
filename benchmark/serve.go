package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"time"

	"fpmpart/internal/fpm"
	"fpmpart/internal/partition"
	"fpmpart/internal/service"
)

const (
	serveModels = 24
	modelKnots  = 16
	warmKeys    = 64
	// The cold workload cycles through coldSpan sizes times coldOrders model
	// orders: more distinct keys than the 4096-entry solution cache holds,
	// so a key has always been evicted before it comes round again.
	coldSpan   = 4000
	coldOrders = 3
)

// seededModels builds count synthetic FPMs with seed-drawn peaks.
func seededModels(rng *rand.Rand, prefix string, count int) (ids []string, models []*fpm.PiecewiseLinear) {
	for i := 0; i < count; i++ {
		ids = append(ids, fmt.Sprintf("%s%02d", prefix, i))
		models = append(models, service.SyntheticModel(modelKnots, 100+900*rng.Float64()))
	}
	return ids, models
}

// partitionBody encodes a /v1/partition request.
func partitionBody(ids []string, n int) []byte {
	b := []byte(`{"models":[`)
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, id)
	}
	b = append(b, `],"n":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	return append(b, '}')
}

func devicesOf(ids []string, models []*fpm.PiecewiseLinear) []partition.Device {
	out := make([]partition.Device, len(ids))
	for i := range ids {
		out[i] = partition.Device{Name: ids[i], Model: models[i]}
	}
	return out
}

// request is one generated partition problem: the body sent, and the same
// problem as the solver takes it, for the traced solve level.
type request struct {
	ids     []string
	n       int
	body    []byte
	devices []partition.Device
}

func newRequest(devices []partition.Device, n int) request {
	ids := make([]string, len(devices))
	for i, d := range devices {
		ids[i] = d.Name
	}
	return request{ids, n, partitionBody(ids, n), devices}
}

// serveCounts are the service-layer counts one client keeps.
type serveCounts struct {
	ok, hits, coalesced, shed int
}

type serveInstance struct {
	cold    bool
	fpmd    *node
	ids     []string
	models  []*fpm.PiecewiseLinear
	clients []*client
	warm    []request
	coldLo  int
	orders  [][]partition.Device // the models in each of the cold workload's orders
	next    atomic.Int64
	counts  []serveCounts
}

func setupServe(cold bool, seed int64) (*serveInstance, error) {
	fpmd, err := startFpmd(service.Config{})
	if err != nil {
		return nil, err
	}
	in := &serveInstance{cold: cold, fpmd: fpmd, clients: []*client{newClient(), newClient()}, counts: make([]serveCounts, 2)}
	if err := in.prepare(rand.New(rand.NewSource(seed))); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// prepare generates the inputs, uploads the models and warms the server.
func (in *serveInstance) prepare(rng *rand.Rand) error {
	in.ids, in.models = seededModels(rng, "dev", serveModels)
	for i, id := range in.ids {
		if _, err := in.clients[0].putModel(in.fpmd.base, id, in.models[i]); err != nil {
			return err
		}
	}
	devices := devicesOf(in.ids, in.models)
	for r := 0; r < coldOrders; r++ {
		in.orders = append(in.orders, append(append([]partition.Device(nil), devices[r:]...), devices[:r]...))
	}
	in.coldLo = 1500 + rng.Intn(1000)
	for len(in.warm) < warmKeys {
		n := 1500 + rng.Intn(4500)
		in.warm = append(in.warm, newRequest(devices, n))
	}
	// One pass fills the cache, so every timed request of the warm workload
	// is a hit; the cold workload's pass only lets connections, pools and
	// lazy set-up settle, and moves the sequence past the sizes it used.
	for i := 0; i < warmKeys; i++ {
		if _, err := in.post(in.clients[i%2], in.nextRequest(0, i)); err != nil {
			return err
		}
	}
	return nil
}

func (in *serveInstance) close() {
	for _, c := range in.clients {
		c.close()
	}
	in.fpmd.stop()
}

// nextRequest is client c's i-th problem: a cached one on the warm workload,
// one the cache cannot hold on the cold one.
func (in *serveInstance) nextRequest(c, i int) request {
	if !in.cold {
		return in.warm[(c*31+i)%warmKeys]
	}
	seq := int(in.next.Add(1) - 1)
	return newRequest(in.orders[(seq/coldSpan)%coldOrders], in.coldLo+seq%coldSpan)
}

// post sends one problem and checks the answer.
func (in *serveInstance) post(c *client, rq request) (*answer, error) {
	return postPartition(c, in.fpmd.base, rq)
}

func postPartition(c *client, base string, rq request) (*answer, error) {
	data, err := c.do(http.MethodPost, base+"/v1/partition", rq.body)
	if err != nil {
		return nil, err
	}
	a := new(answer)
	if err := json.Unmarshal(data, a); err != nil {
		return nil, err
	}
	return a, a.check(rq.n, len(rq.ids))
}

func (in *serveInstance) run(d time.Duration, slices int, _ bool) window {
	return closedLoop(len(in.clients), d, slices, func(c, i int) (time.Duration, bool, error) {
		rq := in.nextRequest(c, i)
		start := time.Now()
		a, err := in.post(in.clients[c], rq)
		lat := time.Since(start)
		cnt := &in.counts[c]
		if err != nil {
			var se *statusError
			if errors.As(err, &se) && se.code == http.StatusTooManyRequests {
				cnt.shed++
			}
			return 0, false, err
		}
		cnt.ok++
		if a.Cached {
			cnt.hits++
		}
		if a.Coalesced {
			cnt.coalesced++
		}
		return lat, false, nil
	})
}

func (in *serveInstance) finish() (int, int, error) { return 0, 0, nil }

func (in *serveInstance) counters() map[string]float64 {
	var t serveCounts
	for _, c := range in.counts {
		t.ok += c.ok
		t.hits += c.hits
		t.coalesced += c.coalesced
		t.shed += c.shed
	}
	out := map[string]float64{
		"service.coalesced": float64(t.coalesced),
		"service.shed_429":  float64(t.shed),
	}
	if t.ok > 0 {
		out["service.hit_ratio"] = float64(t.hits) / float64(t.ok)
	}
	return out
}

// newShadow builds an in-memory server holding the same models, so the
// traced handler level sees the same cache state as the listening one did.
func newShadow(ids []string, models []*fpm.PiecewiseLinear) (http.Handler, error) {
	s, err := service.New(service.Config{})
	if err != nil {
		return nil, err
	}
	for i, id := range ids {
		if _, err := s.Models.Put(id, models[i]); err != nil {
			return nil, err
		}
	}
	return s.Handler(), nil
}

// serveInMemory runs one partition request through a handler without a
// socket.
func serveInMemory(h http.Handler, body []byte) (*answer, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/partition", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return nil, &statusError{rec.Code, rec.Body.String()}
	}
	a := new(answer)
	return a, json.Unmarshal(rec.Body.Bytes(), a)
}

// trace re-enacts requests level by level: over loopback HTTP; then through
// the handler of an in-memory server in the same cache state; then, when
// the answer was solved and not cached, the solve itself.
func (in *serveInstance) trace(tr *tracer, d time.Duration) error {
	shadow, err := newShadow(in.ids, in.models)
	if err != nil {
		return err
	}
	if !in.cold {
		for _, rq := range in.warm {
			if _, err := serveInMemory(shadow, rq.body); err != nil {
				return err
			}
		}
	}
	return traceLoop(len(in.clients), d, func(c, r int) error {
		rq := in.nextRequest(c, r)
		root, err := tr.call("http.partition", -1, r, func() error {
			_, err := in.post(in.clients[c], rq)
			return err
		})
		if err != nil {
			return err
		}
		return traceHandler(tr, root, r, shadow, rq)
	})
}

// traceHandler records the in-memory handler level and, under it, the solve
// when the handler had to solve.
func traceHandler(tr *tracer, parent, r int, h http.Handler, rq request) error {
	var a *answer
	handler, err := tr.call("service.handler", parent, r, func() (err error) {
		a, err = serveInMemory(h, rq.body)
		return err
	})
	if err != nil || a.Cached {
		return err
	}
	_, err = tr.call("partition.FPM", handler, r, func() error {
		_, err := partition.FPM(rq.devices, rq.n, partition.FPMOptions{})
		return err
	})
	return err
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"fpmpart/internal/clusterd"
	"fpmpart/internal/faults"
	"fpmpart/internal/fpm"
	"fpmpart/internal/service"
	"fpmpart/internal/workerd"
)

// The benchmark runs the real stack in its own process and talks to it the
// way outside callers do: every server listens on a loopback TCP port and
// every request is real HTTP.

// node is one listening server with its shutdown.
type node struct {
	base string // http://host:port
	stop func()
}

func stopAll(nodes []*node) {
	for _, n := range nodes {
		n.stop()
	}
}

// stopServer closes a server's listener and idle connections. The benchmark
// stops a server only once nothing is in flight, so it does not grant the
// five seconds http.Server.Shutdown otherwise waits on connections a peer's
// transport opened and never used.
func stopServer(shutdown func(context.Context) error) {
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	_ = shutdown(ctx)
}

// startFpmd boots a single fpmd: the daemon's default configuration
// (request tracing on) plus cfg's switches.
func startFpmd(cfg service.Config) (*node, error) {
	s, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	bound, drain, err := s.Serve("127.0.0.1:0")
	if err != nil {
		s.Close()
		return nil, err
	}
	return &node{base: "http://" + bound, stop: func() {
		stopServer(drain)
		s.Close()
	}}, nil
}

// startRing boots n clusterd members that know each other from the start.
func startRing(n int) ([]*node, error) {
	// Every member needs every peer's URL before any of them listens, so
	// reserve the ports first and release them just before binding.
	addrs := make([]string, n)
	urls := make([]string, n)
	listeners := make([]net.Listener, 0, n)
	for i := range addrs {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, l)
		addrs[i] = l.Addr().String()
		urls[i] = "http://" + addrs[i]
	}
	for _, l := range listeners {
		l.Close()
	}
	var nodes []*node
	for i := range addrs {
		m, err := startMember(addrs[i], urls[i], urls)
		if err != nil {
			stopAll(nodes)
			return nil, fmt.Errorf("ring member %d: %w", i, err)
		}
		nodes = append(nodes, m)
	}
	return nodes, nil
}

func startMember(addr, self string, peers []string) (*node, error) {
	cl, err := clusterd.New(clusterd.Options{Self: self, Peers: peers})
	if err != nil {
		return nil, err
	}
	s, err := service.New(service.Config{Cluster: cl})
	if err != nil {
		return nil, err
	}
	cl.Attach(s)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := cl.Start(ctx); err != nil {
		return nil, err
	}
	_, drain, err := s.ServeHandler(addr, cl.Handler(s.Handler()))
	if err != nil {
		cl.Stop()
		return nil, err
	}
	return &node{base: self, stop: func() {
		stopServer(drain)
		cl.Stop()
	}}, nil
}

// worker is one workerd.Worker listening on its own loopback port.
type worker struct {
	name string
	base string
	stop func()
}

// startWorker boots a single-threaded worker. faultSpec uses the
// internal/faults grammar; "" injects nothing.
func startWorker(name, faultSpec string) (*worker, error) {
	spec, err := faults.ParseSpec(faultSpec)
	if err != nil {
		return nil, err
	}
	inj, err := faults.NewInjector(spec, 1)
	if err != nil {
		return nil, err
	}
	w, err := workerd.NewWorker(workerd.WorkerOptions{Name: name, Workers: 1, Faults: inj})
	if err != nil {
		return nil, err
	}
	bound, shutdown, err := w.Serve("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &worker{name: name, base: "http://" + bound, stop: func() { stopServer(shutdown) }}, nil
}

// register does what cmd/fpmworker does at start-up: self-calibrate an FPM
// on the band ladder and POST it to the coordinator, which measures the wire
// toward the worker before accepting.
func (w *worker) register(c *client, fpmd string, bands []int, k, n int) error {
	pl, err := workerd.SelfCalibrate(bands, k, n, 1)
	if err != nil {
		return err
	}
	model, err := pl.MarshalJSON()
	if err != nil {
		return err
	}
	body, err := json.Marshal(workerd.Registration{Name: w.name, URL: w.base, Cores: 1, Model: model})
	if err != nil {
		return err
	}
	_, err = c.do(http.MethodPost, fpmd+"/v1/workers", body)
	return err
}

// client is one closed-loop caller: one kept-alive connection, one request
// in flight.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// statusError is an answer other than 200.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return "status " + strconv.Itoa(e.code) + ": " + e.body }

// do sends one request and returns the response body, valid until the next
// call. Any status but 200 is an error.
func (c *client) do(method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &statusError{resp.StatusCode, string(bytes.TrimSpace(c.buf.Bytes()))}
	}
	return c.buf.Bytes(), nil
}

// putModel uploads a model through one member and returns the generation it
// was stored at.
func (c *client) putModel(base, id string, pl *fpm.PiecewiseLinear) (uint64, error) {
	data, err := pl.MarshalJSON()
	if err != nil {
		return 0, err
	}
	body, err := c.do(http.MethodPut, base+"/v1/models/"+id, data)
	if err != nil {
		return 0, err
	}
	var out struct {
		Generation uint64 `json:"generation"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return 0, err
	}
	return out.Generation, nil
}

// modelGen reads the generation a member currently serves for id (0 when it
// does not have the model yet).
func (c *client) modelGen(base, id string) (uint64, error) {
	resp, err := c.hc.Get(base + "/v1/models/" + id)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	if resp.StatusCode == http.StatusNotFound {
		return 0, nil
	}
	if resp.StatusCode != http.StatusOK {
		return 0, &statusError{resp.StatusCode, "GET model " + id}
	}
	return strconv.ParseUint(resp.Header.Get(service.GenerationHeader), 10, 64)
}

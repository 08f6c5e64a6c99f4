package clusterd

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"

	"fpmpart/internal/service"
)

// A peer's /healthz answer is drained before its body is closed, so probing
// keeps one connection per peer instead of dialling one per probe.
func TestProbeReusesConnection(t *testing.T) {
	var accepted atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"status":"ok"}`+"\n")
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			accepted.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	m := newMembership("http://self.invalid", []string{srv.URL}, 0, &http.Client{Transport: tr},
		slog.New(slog.NewTextHandler(io.Discard, nil)))
	m.ProbeOnce(context.Background()) // warm-up: the one connection
	warm := accepted.Load()
	for i := 0; i < 10; i++ {
		m.ProbeOnce(context.Background())
	}
	if got := accepted.Load() - warm; got != 0 {
		t.Errorf("peer accepted %d new connections over 10 probes after warm-up, want 0", got)
	}
	if alive := m.AlivePeers(); len(alive) != 1 {
		t.Errorf("alive peers %v, want the probed one", alive)
	}
}

// Every peer wire keeps its connection: after a warm-up call, repeated
// forwards, replication pushes and anti-entropy sweeps open no new
// connection to the peer — including the failing pulls (a model deleted
// between the state fetch and the pull, or served without its generation),
// whose bodies are drained before the close.
func TestPeerWiresReuseConnection(t *testing.T) {
	const model = `{"kind":"piecewise-linear","points":[{"size":10,"speed":100}]}`
	var gen atomic.Uint64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, `{"status":"ok"}`)
	})
	for _, p := range []string{"POST /v1/partition", "POST /v1/observe", "PUT /cluster/v1/models/m"} {
		mux.HandleFunc(p, func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, `{"ok":true}`) })
	}
	mux.HandleFunc("PUT /cluster/v1/models/bad", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, `{"error":"bad generation"}`, http.StatusBadRequest)
	})
	mux.HandleFunc("GET /cluster/v1/state", func(w http.ResponseWriter, _ *http.Request) {
		g := gen.Add(1) // every sweep sees every model at a newer generation
		json.NewEncoder(w).Encode(stateResponse{Models: []service.ModelInfo{
			{ID: "m", Gen: g}, {ID: "gone", Gen: g}, {ID: "nogen", Gen: g},
		}})
	})
	mux.HandleFunc("GET /v1/models/m", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set(service.GenerationHeader, strconv.FormatUint(gen.Load(), 10))
		io.WriteString(w, model)
	})
	mux.HandleFunc("GET /v1/models/gone", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, `{"error":"model not found"}`, http.StatusNotFound)
	})
	mux.HandleFunc("GET /v1/models/nogen", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, model)
	})

	for _, tc := range []struct {
		name    string
		call    func(ctx context.Context, c *Cluster, peer string) error
		wantErr bool
	}{
		{name: "forward partition", call: func(ctx context.Context, c *Cluster, peer string) error {
			_, _, err := c.ForwardPartition(ctx, peer, []byte(`{}`), "req-1")
			return err
		}},
		{name: "forward observe", call: func(ctx context.Context, c *Cluster, peer string) error {
			_, _, err := c.ForwardObserve(ctx, peer, []byte(`{}`), "req-1")
			return err
		}},
		{name: "replicate", call: func(ctx context.Context, c *Cluster, peer string) error {
			return c.putModelTo(ctx, peer, "m", 1, []byte(model))
		}},
		{name: "replicate rejected", wantErr: true, call: func(ctx context.Context, c *Cluster, peer string) error {
			return c.putModelTo(ctx, peer, "bad", 1, []byte(model))
		}},
		{name: "state and pull", wantErr: true, call: func(ctx context.Context, c *Cluster, _ string) error {
			_, err := c.SyncOnce(ctx)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var accepted atomic.Int64
			srv := httptest.NewUnstartedServer(mux)
			srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
				if s == http.StateNew {
					accepted.Add(1)
				}
			}
			srv.Start()
			defer srv.Close()
			c, err := New(Options{Self: "http://self.invalid", Peers: []string{srv.URL}})
			if err != nil {
				t.Fatal(err)
			}
			defer c.client.CloseIdleConnections()
			s, err := service.New(service.Config{})
			if err != nil {
				t.Fatal(err)
			}
			c.Attach(s)
			ctx := context.Background()
			c.mem.ProbeOnce(ctx)
			for i := 0; i < 6; i++ {
				if i == 1 {
					accepted.Store(0) // the first call was the warm-up
				}
				if err := tc.call(ctx, c, srv.URL); (err != nil) != tc.wantErr {
					t.Fatalf("call %d: error %v, want error %v", i, err, tc.wantErr)
				}
			}
			if got := accepted.Load(); got != 0 {
				t.Errorf("peer accepted %d new connections over 5 calls after warm-up, want 0", got)
			}
		})
	}
}

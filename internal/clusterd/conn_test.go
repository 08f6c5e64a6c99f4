package clusterd

import (
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
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

package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"testing"
	"time"
)

// fireAcrossDrain sends inflight concurrent cold partition requests (distinct
// n, so none coalesce), calls startDrain once all of them have reached the
// handler, and counts the outcomes: 200s, clean non-200 HTTP answers, and
// transport failures (reset, refused, EOF). A request that never reached the
// server is not "in flight", so the partitionSeen barrier is what makes a
// zero-drop assertion meaningful rather than racy.
func fireAcrossDrain(t *testing.T, s *Server, base string, inflight int, startDrain func()) (completed, rejected, dropped int) {
	t.Helper()
	client := &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{
		MaxIdleConns: inflight, MaxIdleConnsPerHost: inflight,
	}}
	seen := s.partitionSeen.Load()
	results := make(chan int, inflight) // HTTP status, 0 for a transport failure
	for i := 0; i < inflight; i++ {
		go func(i int) {
			resp, err := client.Post(base+"/v1/partition", "application/json",
				bytes.NewReader(partitionBody(50000+i, "gpu0")))
			if err != nil {
				results <- 0
				return
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil {
				results <- 0
				return
			}
			results <- resp.StatusCode
		}(i)
	}
	for deadline := time.Now().Add(5 * time.Second); s.partitionSeen.Load()-seen < int64(inflight) && time.Now().Before(deadline); {
		time.Sleep(2 * time.Millisecond)
	}
	startDrain()
	for i := 0; i < inflight; i++ {
		switch <-results {
		case http.StatusOK:
			completed++
		case 0:
			dropped++
		default:
			rejected++
		}
	}
	// Connections the transport dialled but never used hold the server's
	// Shutdown for its 5 s new-connection grace unless the client drops them.
	client.CloseIdleConnections()
	return completed, rejected, dropped
}

// TestDrainKeepsInFlightRequests is the serving-side version of the
// telemetry shutdown regression test: requests in flight when the drain
// starts must all complete with valid HTTP responses — zero transport-level
// drops.
func TestDrainKeepsInFlightRequests(t *testing.T) {
	s, err := New(Config{QueueDepth: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Models.Put("gpu0", SyntheticModel(512, 700)); err != nil {
		t.Fatal(err)
	}
	addr, shutdown, err := s.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	const inflight = 128
	shutdownDone := make(chan error, 1)
	completed, rejected, dropped := fireAcrossDrain(t, s, "http://"+addr, inflight, func() {
		go func() {
			dctx, dcancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer dcancel()
			shutdownDone <- shutdown(dctx)
		}()
	})
	if err := <-shutdownDone; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if dropped != 0 {
		t.Fatalf("dropped %d of %d in-flight requests across drain (completed %d, rejected %d)",
			dropped, inflight, completed, rejected)
	}
	if completed == 0 {
		t.Fatalf("no request completed (rejected %d of %d)", rejected, inflight)
	}
}

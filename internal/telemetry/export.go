package telemetry

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// formatValue renders a float the way Prometheus expects.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus writes every metric in the text exposition format, series
// sorted by identity so the output is deterministic.
func (r *Registry) WritePrometheus(w io.Writer) error {
	metrics := r.sortedMetrics()
	typed := map[string]bool{}
	for _, m := range metrics {
		mm := m.meta()
		if !typed[mm.name] {
			typed[mm.name] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", mm.name, m.promKind()); err != nil {
				return err
			}
		}
		switch v := m.(type) {
		case *Counter:
			if _, err := fmt.Fprintf(w, "%s %s\n", mm.id(), formatValue(v.Value())); err != nil {
				return err
			}
		case *Gauge:
			if _, err := fmt.Fprintf(w, "%s %s\n", mm.id(), formatValue(v.Value())); err != nil {
				return err
			}
		case *Histogram:
			var cum uint64
			for i, b := range v.bounds {
				cum += v.counts[i].Load()
				suffix := mm.labelSuffix("le", formatValue(b))
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", mm.name, suffix, cum); err != nil {
					return err
				}
			}
			cum += v.counts[len(v.bounds)].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", mm.name, mm.labelSuffix("le", "+Inf"), cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", mm.name, mm.labelSuffix("", ""), formatValue(v.Sum())); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", mm.name, mm.labelSuffix("", ""), v.Count()); err != nil {
				return err
			}
		}
	}
	return nil
}

// Handler serves the registry in the Prometheus text exposition format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		_ = r.WritePrometheus(w)
	})
}

// WithPprof returns a handler that serves the net/http/pprof runtime
// profiling endpoints under /debug/pprof/ and delegates every other path to
// next. Profiling is opt-in (fpmd's -pprof) because the endpoints expose
// process internals and a CPU profile costs real time.
func WithPprof(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", next)
	return mux
}

// NewHTTPServer returns an http.Server for h with the header, read and idle
// timeouts every endpoint in this repo should run with: without them a
// client that opens a connection and trickles bytes (Slowloris) pins a
// goroutine and a file descriptor forever. The write timeout is left unset
// so a slow scrape of a large exposition is not cut off mid-body; shutdown
// is bounded by the caller's Shutdown context instead.
func NewHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// ServeHTTP starts a hardened HTTP server for handler on addr in a
// background goroutine and returns the bound address (useful with ":0") and
// a context-aware shutdown function. The shutdown stops accepting new
// connections and waits — up to the context deadline — for in-flight
// requests to complete (http.Server.Shutdown semantics), rather than
// aborting them the way Close does.
func ServeHTTP(addr string, handler http.Handler) (string, func(context.Context) error, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := NewHTTPServer(handler)
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv.Shutdown, nil
}

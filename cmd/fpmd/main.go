// Command fpmd serves FPM-based data partitioning as a daemon: a model
// registry (upload/fetch functional performance models as JSON) and a
// partition endpoint that turns registered models plus a problem size into
// integer device shares (optionally with a column-based 2D block layout).
// Solutions are cached and admission-controlled; SIGTERM drains in-flight
// requests before exit.
//
// Usage:
//
//	fpmd -addr :8080 -models /var/lib/fpmd     serve (SIGTERM drains gracefully)
//	fpmd -observe                              also mount POST /v1/observe:
//	                                           online model refinement from
//	                                           observed execution times
//	fpmd -workers                              also mount the worker backend:
//	                                           POST /v1/workers registration and
//	                                           POST /v1/execute distributed jobs
//
// Cluster mode (see internal/clusterd): N instances shard the solution
// cache and solve work by consistent hashing and replicate models
// peer-to-peer. Each member runs with its own advertised URL and the full
// member list; -peers without -self, or a member URL that is not an absolute
// http(s) URL, is rejected at startup:
//
//	fpmd -addr :8081 -self http://10.0.0.1:8081 \
//	     -peers http://10.0.0.1:8081,http://10.0.0.2:8081,http://10.0.0.3:8081
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"fpmpart/internal/cliutil"
	"fpmpart/internal/clusterd"
	"fpmpart/internal/refine"
	"fpmpart/internal/service"
	"fpmpart/internal/telemetry"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		modelDir   = flag.String("models", "", "persist uploaded models to this directory (and pre-load existing ones)")
		maxConc    = flag.Int("max-concurrent", 0, "concurrent cold solves (0 = GOMAXPROCS)")
		queueDepth = flag.Int("queue-depth", 1024, "cold solves allowed to wait for a slot before shedding with 429")
		reqTimeout = flag.Duration("request-timeout", 10*time.Second, "per-request deadline propagated into the solver")
		cacheSize  = flag.Int("cache-size", 4096, "solution cache entries")
		drainTO    = flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight requests")
		recorder   = flag.Int("flight-recorder", 256, "request traces retained for GET /debug/requests (0 disables request tracing)")
		pprofOn    = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ (exposes process internals)")
		runtimeInt = flag.Duration("runtime-metrics", 10*time.Second, "Go runtime metrics sampling interval (0 disables)")

		observeOn   = flag.Bool("observe", false, "mount POST /v1/observe: online model refinement from observed execution times")
		refMinSamp  = flag.Int("refine-min-samples", 0, "observe: samples per size bucket before its mean can be trusted (0 = refine default)")
		refCooldown = flag.Duration("refine-cooldown", 0, "observe: minimum interval between published rebuilds of one model (0 = refine default)")

		workersOn = flag.Bool("workers", false, "mount the worker backend: POST /v1/workers registration + POST /v1/execute distributed jobs")
		workerTTL = flag.Duration("worker-ttl", 0, "heartbeat TTL before a silent worker is marked dead (0 = service default)")

		self   = flag.String("self", "", "this member's advertised base URL; enables cluster mode with -peers")
		peers  = flag.String("peers", "", "comma-separated member base URLs (self included; it is filtered out)")
		vnodes = flag.Int("vnodes", 0, "virtual nodes per ring member (0 = clusterd default)")
	)
	var logFlags cliutil.LogFlags
	logFlags.Register()
	flag.Parse()
	telemetry.Default().SetEnabled(true)

	logger, err := logFlags.Logger(os.Stderr)
	if err != nil {
		fatal(err)
	}

	cfg := service.Config{
		ModelDir:              *modelDir,
		MaxConcurrent:         *maxConc,
		QueueDepth:            *queueDepth,
		RequestTimeout:        *reqTimeout,
		CacheSize:             *cacheSize,
		DisableRequestTracing: *recorder == 0,
		FlightRecorderSize:    *recorder,
		EnablePprof:           *pprofOn,
		Logger:                logger,
		EnableObserve:         *observeOn,
		Refine: refine.Config{
			MinSamples: *refMinSamp,
			Cooldown:   *refCooldown,
		},
		EnableWorkers: *workersOn,
		WorkerTTL:     *workerTTL,
	}
	peerURLs := splitPeers(*peers)
	if err := checkRing(*self, peerURLs); err != nil {
		fatal(err)
	}
	var cl *clusterd.Cluster
	if *self != "" {
		cl, err = clusterd.New(clusterd.Options{
			Self:   *self,
			Peers:  peerURLs,
			VNodes: *vnodes,
			Logger: logger,
		})
		if err != nil {
			fatal(err)
		}
		cfg.Cluster = cl
	}
	if err := serve(cfg, cl, *addr, *drainTO, logger, *runtimeInt); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fpmd:", err)
	os.Exit(1)
}

// splitPeers parses the -peers flag: comma-separated base URLs, blanks
// dropped.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// checkRing rejects a half-configured ring before anything listens: -peers
// without -self would silently serve standalone, and a member URL without a
// scheme or host builds a ring whose every probe and forward fails.
func checkRing(self string, peers []string) error {
	if self == "" {
		if len(peers) > 0 {
			return fmt.Errorf("-peers is set but -self is not: cluster mode needs this member's own base URL")
		}
		return nil
	}
	for _, m := range append([]string{self}, peers...) {
		u, err := url.Parse(m)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("cluster member %q is not an absolute http(s) URL (want e.g. http://10.0.0.1:8081)", m)
		}
	}
	return nil
}

// serve runs the daemon until SIGINT/SIGTERM, then drains: the health
// endpoint flips to 503 so load balancers stop routing, the listener closes,
// and every accepted request finishes (bounded by drainTO) before exit.
//
// In cluster mode (cl != nil) the member probes its peers and pulls newer
// model generations BEFORE the listener opens — a restarted member must not
// serve a stale-generation answer — and the cluster's replication/state
// routes are mounted next to the service routes.
func serve(cfg service.Config, cl *clusterd.Cluster, addr string, drainTO time.Duration, logger *slog.Logger, runtimeInt time.Duration) error {
	s, err := service.New(cfg)
	if err != nil {
		return err
	}
	defer s.Close()
	if runtimeInt > 0 {
		stop := telemetry.Default().StartRuntimeCollector(runtimeInt)
		defer stop()
	}
	h := s.Handler()
	if cl != nil {
		cl.Attach(s)
		sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err := cl.Start(sctx)
		cancel()
		if err != nil {
			return fmt.Errorf("cluster start: %w", err)
		}
		defer cl.Stop()
		h = cl.Handler(h)
	}
	bound, drain, err := s.ServeHandler(addr, h)
	if err != nil {
		return err
	}
	logger.Info("serving",
		slog.String("addr", bound),
		slog.Int("models", s.Models.Len()),
		slog.Bool("cluster", cl != nil),
		slog.Bool("observe", cfg.EnableObserve),
		slog.Bool("pprof", cfg.EnablePprof),
		slog.Bool("tracing", !cfg.DisableRequestTracing))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()

	logger.Info("draining", slog.Duration("timeout", drainTO))
	dctx, cancel := context.WithTimeout(context.Background(), drainTO)
	defer cancel()
	if err := drain(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	logger.Info("drained cleanly")
	return nil
}

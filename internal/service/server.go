package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"regexp"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fpmpart/internal/fpm"
	"fpmpart/internal/layout"
	"fpmpart/internal/par"
	"fpmpart/internal/partition"
	"fpmpart/internal/refine"
	"fpmpart/internal/telemetry"
	"fpmpart/internal/workerd"
)

// ForwardedHeader marks a partition request that already took its forward
// hop: the receiving peer serves it locally no matter what its ring says,
// so transient membership disagreement can never loop a request between
// peers.
const ForwardedHeader = "X-Fpmd-Forwarded"

// GenerationHeader carries a model's cluster generation on replication and
// model-fetch responses.
const GenerationHeader = "X-Fpmd-Generation"

// ClusterHooks connects the server to an fpmd cluster (internal/clusterd
// implements it). All methods must be safe for concurrent use. A nil
// Config.Cluster keeps the original single-node behaviour.
type ClusterHooks interface {
	// Self returns this instance's advertised base URL (e.g.
	// "http://10.0.0.3:8080"), reported as the origin of served responses.
	Self() string
	// Owner maps a solution key to the peer owning its cache/solve shard.
	// self=true means this instance owns the key and serves it locally.
	Owner(key string) (peer string, self bool)
	// ForwardPartition proxies a partition request body to peer's
	// /v1/partition, returning the HTTP status and response body. A non-nil
	// error is a transport failure — the caller falls back to solving
	// locally, so a dead owner degrades to extra work, not an error.
	ForwardPartition(ctx context.Context, peer string, body []byte, requestID string) (int, []byte, error)
	// ForwardObserve proxies an observe batch to peer's /v1/observe — the
	// ring owner of the batch's model — so one member refines each model
	// and its generation stream stays strictly increasing. Same error
	// semantics as ForwardPartition: transport failure falls back to
	// refining locally.
	ForwardObserve(ctx context.Context, peer string, body []byte, requestID string) (int, []byte, error)
	// ReplicateModel pushes a locally accepted model write to all peers
	// (asynchronously; generation conflicts resolve highest-wins remotely).
	ReplicateModel(id string, gen uint64, raw []byte)
	// ReplicateDelete pushes a locally accepted model delete to all peers.
	ReplicateDelete(id string)
}

// Config tunes the service.
type Config struct {
	// ModelDir persists uploaded models and pre-loads existing ones.
	// Empty disables persistence.
	ModelDir string
	// MaxConcurrent bounds concurrent cold solves (0 = GOMAXPROCS).
	MaxConcurrent int
	// QueueDepth bounds solves waiting for a slot; beyond it requests are
	// shed with 429 + Retry-After. Default 1024.
	QueueDepth int
	// RequestTimeout is the per-request deadline propagated into the
	// solver. Default 10s.
	RequestTimeout time.Duration
	// CacheSize bounds the solution LRU. Default 4096.
	CacheSize int
	// DisableRequestTracing turns off per-request trace capture and the
	// flight recorder (the zero value keeps tracing on — its steady-state
	// cost is a few small allocations per request).
	DisableRequestTracing bool
	// FlightRecorderSize is the number of recent request traces retained in
	// the flight-recorder ring. Default 256.
	FlightRecorderSize int
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the service
	// handler. Off by default: the endpoints expose process internals.
	EnablePprof bool
	// Logger receives structured request/panic logs with trace-ID
	// correlation. Nil discards them.
	Logger *slog.Logger
	// Cluster, when non-nil, turns on cluster mode: solution keys are
	// routed to their consistent-hash owner, model writes replicate to
	// peers, and responses carry their origin peer. Nil = single node.
	Cluster ClusterHooks
	// EnableObserve mounts POST /v1/observe: online model refinement from
	// observed execution times. Off by default — refined models replace
	// their seeds, which deployments pinning hand-built models may not want.
	EnableObserve bool
	// Refine tunes the online refiner (zero value = refine package
	// defaults). Only consulted when EnableObserve is set.
	Refine refine.Config
	// EnableWorkers mounts the worker backend: POST /v1/workers
	// (registration + wire calibration), heartbeats, and POST /v1/execute
	// (partition a real job over the registered workers). Off by default.
	EnableWorkers bool
	// WorkerTTL is how long a worker stays live without a heartbeat.
	// Default 5s.
	WorkerTTL time.Duration
}

// flightRecorderReserve is the number of slowest (and, separately, errored)
// traces the flight recorder retains beyond its recent ring.
const flightRecorderReserve = 32

func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 1024
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 4096
	}
	if c.FlightRecorderSize <= 0 {
		c.FlightRecorderSize = 256
	}
	if c.WorkerTTL <= 0 {
		c.WorkerTTL = 5 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Server is the partitioning service: model registry + solution cache +
// admission-controlled solver, exposed as an HTTP JSON API.
type Server struct {
	cfg      Config
	Models   *Registry
	cache    *solutionCache
	flights  flightGroup
	gate     *par.Gate
	recorder *telemetry.FlightRecorder
	refiner  *refine.Refiner
	pool     *workerd.Pool
	executor *workerd.Executor
	logger   *slog.Logger
	draining atomic.Bool
	// partitionSeen counts partition requests admitted by the handler
	// (monotonic, independent of the telemetry registry). The drain test
	// uses it to know when every fired request is truly in flight
	// server-side before starting the shutdown.
	partitionSeen atomic.Int64
}

// New builds a Server from cfg (and loads persisted models when ModelDir is
// set).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		Models: NewRegistry(cfg.ModelDir),
		cache:  newSolutionCache(cfg.CacheSize),
		gate:   par.NewGate(cfg.MaxConcurrent, cfg.QueueDepth),
		logger: cfg.Logger,
	}
	// A model write purges the answers solved against the generations it
	// supersedes. The current generation is read back rather than passed in,
	// so two racing writes cannot purge each other's live entries for good.
	// A write at the same generation supersedes that generation's answers
	// too: it purges every answer naming the model.
	s.Models.onWrite = func(id string, sameGen bool) {
		var gen uint64
		if m, err := s.Models.Get(id); err == nil && !sameGen {
			gen = m.Gen
		}
		s.cache.purgeModel(id, gen)
	}
	if !cfg.DisableRequestTracing {
		s.recorder = telemetry.NewFlightRecorder(cfg.FlightRecorderSize, flightRecorderReserve)
	}
	if cfg.EnableObserve {
		r, err := refine.New(refineRegistry{s}, cfg.Refine)
		if err != nil {
			return nil, err
		}
		s.refiner = r
	}
	if cfg.EnableWorkers {
		s.pool = workerd.NewPool(workerModelSink{s}, workerd.PoolOptions{
			TTL:    cfg.WorkerTTL,
			Logger: cfg.Logger,
		})
		s.executor = workerd.NewExecutor(s.pool, workerModelSource{s}, workerObserver{s}, workerd.ExecutorOptions{
			Logger: cfg.Logger,
		})
		s.pool.Start()
	}
	if _, err := s.Models.Load(); err != nil {
		return nil, err
	}
	return s, nil
}

// SetDraining flips the health endpoint to 503 so load balancers stop
// routing new traffic while in-flight requests finish.
func (s *Server) SetDraining(on bool) { s.draining.Store(on) }

// CacheLen returns the number of cached solutions. Only tests call it; it
// stays exported because the cluster tests read it from another package.
func (s *Server) CacheLen() int { return s.cache.len() }

// Handler returns the service's HTTP API:
//
//	GET    /healthz          liveness (503 while draining)
//	GET    /v1/models        list model ids
//	PUT    /v1/models/{id}   upload a model (fpm JSON wire form)
//	GET    /v1/models/{id}   fetch a model
//	DELETE /v1/models/{id}   remove a model
//	POST   /v1/partition     FPM partition over registered models
//	POST   /v1/observe       online model refinement (Config.EnableObserve)
//	GET    /metrics          telemetry registry exposition (Prometheus text)
//	GET    /debug/requests   flight recorder (recent/slowest/errored traces)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc("GET /v1/models", s.instrument("models.list", s.handleListModels))
	mux.HandleFunc("PUT /v1/models/{id}", s.instrument("models.put", s.handlePutModel))
	mux.HandleFunc("GET /v1/models/{id}", s.instrument("models.get", s.handleGetModel))
	mux.HandleFunc("DELETE /v1/models/{id}", s.instrument("models.delete", s.handleDeleteModel))
	mux.HandleFunc("POST /v1/partition", s.instrument("partition", s.handlePartition))
	if s.refiner != nil {
		mux.HandleFunc("POST /v1/observe", s.instrument("observe", s.handleObserve))
	}
	if s.pool != nil {
		mux.HandleFunc("POST /v1/workers", s.instrument("workers.register", s.handleRegisterWorker))
		mux.HandleFunc("GET /v1/workers", s.instrument("workers.list", s.handleListWorkers))
		mux.HandleFunc("POST /v1/workers/{name}/heartbeat", s.instrument("workers.heartbeat", s.handleWorkerHeartbeat))
		mux.HandleFunc("DELETE /v1/workers/{name}", s.instrument("workers.delete", s.handleRemoveWorker))
		mux.HandleFunc("POST /v1/execute", s.instrument("execute", s.handleExecute))
	}
	// Deliberately not instrumented: the recorder must stay reachable even
	// when the serving path is saturated, and recording reads of the recorder
	// in the recorder itself would be noise.
	mux.HandleFunc("GET /debug/requests", s.handleDebugRequests)
	mux.Handle("GET /metrics", telemetry.Default().Handler())
	if s.cfg.EnablePprof {
		return telemetry.WithPprof(mux)
	}
	return mux
}

func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	if s.recorder == nil {
		writeError(w, http.StatusNotFound, "request tracing disabled")
		return
	}
	s.recorder.ServeHTTP(w, r)
}

// statusWriter captures the response code for request metrics, and whether
// the handler wrote anything (so the panic middleware knows if a 500 can
// still be sent).
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(p)
}

// requestIDRE accepts caller-supplied X-Request-Id values: printable token
// characters, bounded length. Anything else is ignored and a fresh ID is
// generated, so a hostile header cannot smuggle bytes into logs or JSON.
var requestIDRE = regexp.MustCompile(`^[A-Za-z0-9._:-]{1,128}$`)

// clientRequestID extracts a caller-supplied request ID: X-Request-Id
// verbatim when well-formed, else the trace-id field of a W3C traceparent
// header. Empty means "generate one".
func clientRequestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); requestIDRE.MatchString(id) {
		return id
	}
	// traceparent: version-traceid-spanid-flags; adopt the 32-hex trace-id.
	if tp := r.Header.Get("Traceparent"); tp != "" {
		parts := strings.Split(tp, "-")
		if len(parts) == 4 && len(parts[1]) == 32 && isLowerHex(parts[1]) && parts[1] != strings.Repeat("0", 32) {
			return parts[1]
		}
	}
	return ""
}

func isLowerHex(s string) bool {
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// instrument wraps a handler with panic recovery, the request counter,
// latency histogram, in-flight gauge, the per-request deadline, and — when
// tracing is enabled — a request trace recorded into the flight recorder and
// correlated with a structured log line. Metrics and trace are recorded in a
// defer so they stay accurate on the panic path.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	h = s.recovered(route, h)
	series := newRouteSeries(route)
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		start := time.Now()
		inflightGauge.Add(1)
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		var rt *telemetry.ReqTrace
		if s.recorder != nil {
			rt = telemetry.NewReqTrace(clientRequestID(r), route)
			ctx = telemetry.ContextWithTrace(ctx, rt)
			w.Header().Set("X-Request-Id", rt.ID())
		}
		defer func() {
			elapsed := time.Since(start)
			inflightGauge.Add(-1)
			series.requests(sw.status).Inc()
			series.seconds().Observe(elapsed.Seconds())
			if rt != nil {
				rt.Finish(sw.status)
				s.recorder.Record(rt)
			}
			level := slog.LevelDebug
			if sw.status >= 500 {
				level = slog.LevelError
			}
			s.logger.LogAttrs(ctx, level, "request",
				slog.String("request_id", rt.ID()),
				slog.String("route", route),
				slog.Int("status", sw.status),
				slog.Duration("duration", elapsed))
		}()
		h(sw, r.WithContext(ctx))
	}
}

// recovered converts a handler panic into a 500 response (when nothing was
// written yet), counts it in http_panics_total, and logs the stack with the
// request's trace ID so the flight recorder entry and the log line can be
// joined. http.ErrAbortHandler is re-panicked: it is net/http's sanctioned
// way to abort a response and must keep its semantics.
func (s *Server) recovered(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			panicsTotal.Inc()
			ctx := r.Context()
			telemetry.AnnotateTrace(ctx, "panic", fmt.Sprint(p))
			s.logger.LogAttrs(ctx, slog.LevelError, "panic",
				slog.String("request_id", telemetry.TraceFrom(ctx).ID()),
				slog.String("route", route),
				slog.Any("value", p),
				slog.String("stack", string(debug.Stack())))
			sw, _ := w.(*statusWriter)
			if sw != nil && sw.wrote {
				// Headers are gone; all we can do is record the failure.
				sw.status = http.StatusInternalServerError
				return
			}
			writeError(w, http.StatusInternalServerError, "internal server error")
		}()
		h(w, r)
	}
}

// jsonBuf is a pooled response-encoding buffer with its encoder pre-bound,
// so writeJSON does not allocate a fresh buffer and encoder per response.
// The partition answer does not go through it: writeAnswer appends it.
type jsonBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonBufPool = sync.Pool{New: func() any {
	jb := new(jsonBuf)
	jb.enc = json.NewEncoder(&jb.buf)
	return jb
}}

// readBufPool pools request-body buffers: the partition handler keeps the
// raw bytes around for cluster forwarding, and reusing the buffer keeps the
// read off the per-request allocation bill.
var readBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func writeJSON(w http.ResponseWriter, status int, v any) {
	jb := jsonBufPool.Get().(*jsonBuf)
	jb.buf.Reset()
	if err := jb.enc.Encode(v); err != nil {
		// Should be unreachable for the response types used here; preserve
		// the old behaviour (headers out, body lost) without poisoning the
		// pool.
		jsonBufPool.Put(jb)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(jb.buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(jb.buf.Bytes())
	jsonBufPool.Put(jb)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status, state := http.StatusOK, "ok"
	if s.draining.Load() {
		status, state = http.StatusServiceUnavailable, "draining"
	}
	writeJSON(w, status, map[string]any{
		"status": state,
		"models": s.Models.Len(),
	})
}

func (s *Server) handleListModels(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"models": s.Models.List()})
}

// maxModelBody bounds one model upload; far beyond any real FPM while
// keeping a hostile client from ballooning the heap.
const maxModelBody = 32 << 20

func (s *Server) handlePutModel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !ValidID(id) {
		writeError(w, http.StatusBadRequest, "invalid model id %q", id)
		return
	}
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxModelBody))
	pl := new(fpm.PiecewiseLinear)
	if err == nil {
		err = pl.UnmarshalJSON(data)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "parse model: %v", err)
		return
	}
	m, err := s.Models.Put(id, pl)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "store model: %v", err)
		return
	}
	if c := s.cfg.Cluster; c != nil {
		c.ReplicateModel(id, m.Gen, m.Raw)
	}
	dmin, dmax := pl.Domain()
	writeJSON(w, http.StatusOK, map[string]any{
		"id": id, "points": len(pl.Points()), "generation": m.Gen,
		"domain": []float64{dmin, dmax},
	})
}

func (s *Server) handleGetModel(w http.ResponseWriter, r *http.Request) {
	m, err := s.Models.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	w.Header().Set(GenerationHeader, strconv.FormatUint(m.Gen, 10))
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(m.Raw)
}

func (s *Server) handleDeleteModel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.Models.Delete(id); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, ErrNotFound) {
			status = http.StatusNotFound
		}
		writeError(w, status, "%v", err)
		return
	}
	if s.refiner != nil {
		s.refiner.Forget(id)
	}
	if c := s.cfg.Cluster; c != nil {
		c.ReplicateDelete(id)
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// partitionRequest is the body of POST /v1/partition. Either N (computation
// units) or Matrix (blocks per side; n = Matrix²) must be set; Layout
// requires Matrix since rectangles tile a Matrix×Matrix block grid.
type partitionRequest struct {
	Models []string  `json:"models"`
	N      int       `json:"n,omitempty"`
	Matrix int       `json:"matrix,omitempty"`
	Caps   []float64 `json:"caps,omitempty"`
	Layout bool      `json:"layout,omitempty"`
}

type layoutRect struct {
	X int `json:"x"`
	Y int `json:"y"`
	W int `json:"w"`
	H int `json:"h"`
}

type layoutResponse struct {
	N          int          `json:"n"`
	Rects      []layoutRect `json:"rects"`
	Columns    [][]int      `json:"columns"`
	CommVolume float64      `json:"comm_volume"`
}

const maxPartitionModels = 256

func (r *partitionRequest) validate() error {
	if len(r.Models) == 0 {
		return errors.New("models must be non-empty")
	}
	if len(r.Models) > maxPartitionModels {
		return fmt.Errorf("too many models (%d > %d)", len(r.Models), maxPartitionModels)
	}
	if (r.N > 0) == (r.Matrix > 0) {
		return errors.New("exactly one of n or matrix must be positive")
	}
	if r.Layout && r.Matrix <= 0 {
		return errors.New("layout requires matrix")
	}
	if len(r.Caps) != 0 && len(r.Caps) != len(r.Models) {
		return fmt.Errorf("caps length %d != models length %d", len(r.Caps), len(r.Models))
	}
	for i, c := range r.Caps {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return fmt.Errorf("invalid cap %v at index %d", c, i)
		}
	}
	return nil
}

func (r *partitionRequest) units() int {
	if r.Matrix > 0 {
		return r.Matrix * r.Matrix
	}
	return r.N
}

// requestScratch pools decoded partition requests, and deviceScratch the
// device lists solve hands the solver (a Result copies each Device), so
// neither is garbage per request.
var (
	requestScratch = sync.Pool{New: func() any { return new(partitionRequest) }}
	deviceScratch  = sync.Pool{New: func() any { return new([]partition.Device) }}
)

// keyScratch pools cache-key build buffers; the key itself escapes as one
// string allocation (it has to — it is a map key), but the scratch space
// and the fmt machinery the old builder paid per request do not.
var keyScratch = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// solutionKey identifies one solve: model ids pinned to their registry
// generations, the problem size and every option that changes the answer.
// In cluster mode it doubles as the consistent-hash routing key.
func solutionKey(req *partitionRequest, models []*Model) string {
	bp := keyScratch.Get().(*[]byte)
	b := (*bp)[:0]
	for i, m := range models {
		b = append(b, m.ID...)
		b = append(b, ':')
		b = strconv.AppendUint(b, m.Gen, 10)
		if len(req.Caps) > 0 {
			b = append(b, '@')
			b = strconv.AppendFloat(b, req.Caps[i], 'g', -1, 64)
		}
		b = append(b, '|')
	}
	b = append(b, "n="...)
	b = strconv.AppendInt(b, int64(req.N), 10)
	b = append(b, ";m="...)
	b = strconv.AppendInt(b, int64(req.Matrix), 10)
	b = append(b, ";lay="...)
	b = strconv.AppendBool(b, req.Layout)
	key := string(b)
	*bp = b
	keyScratch.Put(bp)
	return key
}

func (s *Server) handlePartition(w http.ResponseWriter, r *http.Request) {
	s.partitionSeen.Add(1)
	reqStart := time.Now()
	ctx := r.Context()
	rb := readBufPool.Get().(*bytes.Buffer)
	rb.Reset()
	defer readBufPool.Put(rb)
	if _, err := rb.ReadFrom(http.MaxBytesReader(w, r.Body, 1<<20)); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	req := requestScratch.Get().(*partitionRequest)
	defer requestScratch.Put(req)
	// Decoding into the pooled slices reuses their arrays: encoding/json
	// resets a slice's length and appends.
	*req = partitionRequest{Models: req.Models[:0], Caps: req.Caps[:0]}
	if err := json.Unmarshal(rb.Bytes(), req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if err := req.validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	resolve := telemetry.Stage(ctx, "resolve")
	models, err := s.Models.Resolve(req.Models)
	resolve.End()
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}

	key := solutionKey(req, models)
	cluster := s.cfg.Cluster
	forwarded := r.Header.Get(ForwardedHeader) != ""
	if cluster != nil && forwarded {
		forwardedServed.Inc()
		telemetry.AnnotateTrace(ctx, "forwarded", "true")
	}
	lookup := telemetry.Stage(ctx, "cache")
	sol, hit := s.cache.get(key)
	lookup.End()
	if hit {
		cacheHits.Inc()
		telemetry.AnnotateTrace(ctx, "cache", "hit")
		warmSeconds.Observe(time.Since(reqStart).Seconds())
		s.writeAnswer(ctx, w, models, sol, true, false)
		return
	}
	cacheMisses.Inc()
	telemetry.AnnotateTrace(ctx, "cache", "miss")

	// Cluster routing: a cache miss for a key another peer owns takes one
	// forward hop to the owner (which caches it for the whole cluster);
	// requests that already took their hop are served locally no matter
	// what, so ring disagreement during membership churn cannot loop. A
	// transport failure falls back to a local solve — a dead owner costs
	// duplicated work, never an error.
	if cluster != nil && !forwarded {
		if peer, self := cluster.Owner(key); !self {
			ownedByPeer().Inc()
			fctx, forward := telemetry.StartStage(ctx, "forward")
			telemetry.AnnotateTrace(ctx, "forward_peer", peer)
			status, body, ferr := cluster.ForwardPartition(fctx, peer, rb.Bytes(), telemetry.TraceFrom(ctx).ID())
			forward.End()
			if ferr == nil {
				forwardsOK().Inc()
				w.Header().Set("Content-Type", "application/json")
				w.Header().Set("Content-Length", strconv.Itoa(len(body)))
				w.WriteHeader(status)
				_, _ = w.Write(body)
				return
			}
			forwardsFailed().Inc()
			telemetry.AnnotateTrace(ctx, "forward", "fallback: "+ferr.Error())
		} else {
			ownedBySelf().Inc()
		}
	}

	sol, err, shared := s.flights.doCtx(ctx, key, func() (*solution, error) {
		sctx, stage := telemetry.StartStage(ctx, "solve")
		defer stage.End()
		if err := s.gate.Acquire(sctx); err != nil {
			return nil, err
		}
		defer s.gate.Release()
		start := time.Now()
		sol, err := s.solve(sctx, req, models)
		if err != nil {
			return nil, err
		}
		sol.seconds = time.Since(start).Seconds()
		coldSeconds.Observe(sol.seconds)
		return s.cache.put(key, sol), nil
	})
	if shared {
		cacheCoalesced.Inc()
		// Later annotation wins in the snapshot, so a coalesced follower
		// shows cache=coalesced rather than the miss recorded above.
		telemetry.AnnotateTrace(ctx, "cache", "coalesced")
		// The leader's solve can fail with the *leader's* context error; if
		// our own context is still live, solve uncoalesced rather than
		// failing a healthy request.
		if err != nil && isContextErr(err) && ctx.Err() == nil {
			sol, err = func() (*solution, error) {
				sctx, stage := telemetry.StartStage(ctx, "solve")
				defer stage.End()
				if err := s.gate.Acquire(sctx); err != nil {
					return nil, err
				}
				defer s.gate.Release()
				sol, err := s.solve(sctx, req, models)
				return &sol, err
			}()
		}
	}
	if err != nil {
		s.writeSolveError(w, err)
		return
	}
	s.writeAnswer(ctx, w, models, sol, false, shared)
}

// writeResult is writeJSON wrapped in a "serialize" trace stage, so the span
// tree of a served observe or execute request separates compute time from
// response encoding (writeAnswer does the same for a partition answer).
func (s *Server) writeResult(ctx context.Context, w http.ResponseWriter, status int, v any) {
	defer telemetry.Stage(ctx, "serialize").End()
	writeJSON(w, status, v)
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// writeSolveError maps solver-path failures to HTTP: saturation → 429 with
// Retry-After, per-request deadline → 503, anything else → 422 (the solver
// rejected the problem, e.g. caps below n).
func (s *Server) writeSolveError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, par.ErrSaturated):
		shedTotal.Inc()
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "solver saturated, retry later")
	case isContextErr(err):
		writeError(w, http.StatusServiceUnavailable, "request deadline exceeded: %v", err)
	default:
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
	}
}

// solve runs the FPM partition (and optional layout) for req.
func (s *Server) solve(ctx context.Context, req *partitionRequest, models []*Model) (solution, error) {
	dp := deviceScratch.Get().(*[]partition.Device)
	devices := (*dp)[:0]
	for i, m := range models {
		var maxUnits float64
		if len(req.Caps) > 0 {
			maxUnits = req.Caps[i]
		}
		devices = append(devices, partition.Device{Name: m.ID, Model: m.PL, MaxUnits: maxUnits})
	}
	res, err := partition.FPMContext(ctx, devices, req.units(), partition.FPMOptions{})
	clear(devices)
	*dp = devices[:0]
	deviceScratch.Put(dp)
	if err != nil {
		return solution{}, err
	}
	sol := solution{shares: res.Units(), iterations: res.Iterations, converged: res.Converged}
	if req.Layout {
		lay, err := buildLayout(sol.shares, req.Matrix)
		if err != nil {
			return solution{}, err
		}
		if sol.layout, err = json.Marshal(lay); err != nil {
			return solution{}, fmt.Errorf("layout: %w", err)
		}
	}
	return sol, nil
}

// buildLayout converts the unit shares into a column-based block layout of
// the Matrix×Matrix grid. Devices assigned zero units are excluded from the
// arrangement (their rectangle is reported as empty).
func buildLayout(shares []int, matrix int) (*layoutResponse, error) {
	var areas []float64
	var owners []int
	for i, u := range shares {
		if u > 0 {
			areas = append(areas, float64(u))
			owners = append(owners, i)
		}
	}
	if len(areas) == 0 {
		return nil, errors.New("layout: no device received work")
	}
	cont, err := layout.Continuous(areas)
	if err != nil {
		return nil, fmt.Errorf("layout: %w", err)
	}
	bl, err := cont.Discretize(matrix)
	if err != nil {
		return nil, fmt.Errorf("layout: %w", err)
	}
	out := &layoutResponse{
		N:          matrix,
		Rects:      make([]layoutRect, len(shares)),
		CommVolume: bl.CommVolume(),
	}
	for j, r := range bl.Rects {
		out.Rects[owners[j]] = layoutRect{X: int(r.X), Y: int(r.Y), W: int(r.W), H: int(r.H)}
	}
	for _, col := range bl.Columns {
		mapped := make([]int, len(col))
		for k, j := range col {
			mapped[k] = owners[j]
		}
		out.Columns = append(out.Columns, mapped)
	}
	return out, nil
}

// Serve binds the hardened HTTP server on addr and returns the bound address
// and a graceful shutdown (telemetry.ServeHTTP semantics: in-flight requests
// complete, bounded by the shutdown context).
func (s *Server) Serve(addr string) (string, func(context.Context) error, error) {
	return s.ServeHandler(addr, s.Handler())
}

// ServeHandler is Serve with a caller-supplied handler — typically
// Handler() wrapped with extra routes (the cluster layer mounts its
// replication and state endpoints this way). The drain still flips
// /healthz to 503 first so peers and load balancers stop routing here.
func (s *Server) ServeHandler(addr string, h http.Handler) (string, func(context.Context) error, error) {
	bound, shutdown, err := telemetry.ServeHTTP(addr, h)
	if err != nil {
		return "", nil, err
	}
	drain := func(ctx context.Context) error {
		s.SetDraining(true)
		return shutdown(ctx)
	}
	return bound, drain, nil
}

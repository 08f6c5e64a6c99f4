package service

import (
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"time"

	"fpmpart/internal/fpm"
	"fpmpart/internal/refine"
	"fpmpart/internal/workerd"
)

// Worker-backend API (Config.EnableWorkers): fpmd stops being a pure
// partition calculator and becomes a coordinator. Worker processes
// (cmd/fpmworker) register here with a self-calibrated FPM, heartbeat to
// stay live, and POST /v1/execute partitions a real job over them with the
// same solver that answers /v1/partition — feeding the measured shard
// timings back into the /v1/observe refinement loop, so the models the next
// partition uses converge on what the workers actually did.

// workerModelSink publishes a registering worker's self-calibrated model
// into the model registry (replicating in cluster mode), so the worker's
// name doubles as its model id for /v1/partition and /v1/observe.
type workerModelSink struct{ s *Server }

func (a workerModelSink) PutWorkerModel(name string, pl *fpm.PiecewiseLinear) (uint64, error) {
	m, err := a.s.Models.Put(name, pl)
	if err != nil {
		return 0, err
	}
	if c := a.s.cfg.Cluster; c != nil {
		c.ReplicateModel(name, m.Gen, m.Raw)
	}
	return m.Gen, nil
}

// workerModelSource resolves a worker's currently served model for the
// executor — fresh every round, so observe-driven refinement between rounds
// shifts the next partition.
type workerModelSource struct{ s *Server }

func (a workerModelSource) WorkerModel(name string) (*fpm.PiecewiseLinear, uint64, error) {
	m, err := a.s.Models.Get(name)
	if err != nil {
		return nil, 0, err
	}
	return m.PL, m.Gen, nil
}

// workerObserver feeds measured shard timings into the same refiner that
// backs POST /v1/observe. A nil refiner (Config.EnableObserve off) makes
// execution run open-loop: jobs still work, models just stay as calibrated.
type workerObserver struct{ s *Server }

func (a workerObserver) ObserveWorker(name string, samples []refine.Sample) {
	if a.s.refiner == nil {
		return
	}
	res, err := a.s.refiner.Observe(name, samples)
	if err != nil {
		a.s.logger.Warn("worker observe failed",
			slog.String("worker", name), slog.String("error", err.Error()))
		return
	}
	if res.Applied {
		a.s.logger.Info("worker model refined",
			slog.String("worker", name), slog.Uint64("generation", res.Generation))
	}
}

// WorkerPool exposes the worker pool (nil unless Config.EnableWorkers). Only
// tests call it; it stays exported because the worker tests read it from
// another package.
func (s *Server) WorkerPool() *workerd.Pool { return s.pool }

// Executor exposes the job executor (nil unless Config.EnableWorkers).
func (s *Server) Executor() *workerd.Executor { return s.executor }

// Close releases background resources (currently the worker pool's TTL
// janitor). Safe on a server without workers enabled.
func (s *Server) Close() {
	if s.pool != nil {
		s.pool.Stop()
	}
}

// maxWorkerBody bounds a registration or execute request body.
const maxWorkerBody = 1 << 20

// executeTimeout bounds one POST /v1/execute job end to end (it runs past
// the per-request deadline by design).
const executeTimeout = 10 * time.Minute

func (s *Server) handleRegisterWorker(w http.ResponseWriter, r *http.Request) {
	var reg workerd.Registration
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxWorkerBody)).Decode(&reg); err != nil {
		writeError(w, http.StatusBadRequest, "decode registration: %v", err)
		return
	}
	if !ValidID(reg.Name) {
		writeError(w, http.StatusBadRequest, "invalid worker name %q (must be a valid model id)", reg.Name)
		return
	}
	info, err := s.pool.Register(r.Context(), reg)
	if err != nil {
		// A failed probe means we could not reach the worker's own URL — the
		// registration is unusable, which is the client's problem.
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"worker":                info,
		"heartbeat_ttl_seconds": s.pool.TTL().Seconds(),
	})
}

func (s *Server) handleWorkerHeartbeat(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.pool.Heartbeat(name) {
		writeError(w, http.StatusNotFound, "unknown worker %q: re-register", name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok", "worker": name})
}

func (s *Server) handleListWorkers(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"workers": s.pool.List(),
	})
}

func (s *Server) handleRemoveWorker(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.pool.Remove(name) {
		writeError(w, http.StatusNotFound, "unknown worker %q", name)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"removed": name})
}

func (s *Server) handleExecute(w http.ResponseWriter, r *http.Request) {
	var req workerd.ExecuteRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxWorkerBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	// A job outlives the standard per-request deadline (rounds × shard time),
	// so detach from the instrument timeout and apply the execute budget.
	ctx, cancel := context.WithTimeout(context.WithoutCancel(r.Context()), executeTimeout)
	defer cancel()
	report, err := s.executor.Execute(ctx, req)
	if err != nil {
		if report == nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		// Partial progress (e.g. every worker died): report what happened.
		writeJSON(w, http.StatusBadGateway, map[string]any{
			"error": err.Error(), "report": report,
		})
		return
	}
	s.writeResult(r.Context(), w, http.StatusOK, report)
}

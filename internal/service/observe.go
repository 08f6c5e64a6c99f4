package service

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"sort"

	"fpmpart/internal/fpm"
	"fpmpart/internal/refine"
	"fpmpart/internal/telemetry"
)

// POST /v1/observe: online FPM refinement from live traffic. Clients post
// batches of observed executions (the job executor hands its shard timings
// to the same refiner through workerObserver); the refiner accumulates them
// into size-bucketed estimators and republishes refined models under bumped
// generations, which invalidates dependent solution-cache entries by
// construction and — in cluster mode — replicates to peers highest-wins.

// observeSample is one observed execution of a device's kernel.
type observeSample struct {
	// Model names the registered model the observation refines. May be
	// omitted when the batch-level model is set.
	Model string `json:"model,omitempty"`
	// Device optionally records which physical device produced the sample;
	// it is informational (the model id is the refinement key).
	Device string `json:"device,omitempty"`
	// Size is the problem size in computation units; Seconds the measured
	// wall-clock time. Both must be positive and finite.
	Size    float64 `json:"size"`
	Seconds float64 `json:"seconds"`
}

// observeRequest is the body of POST /v1/observe.
type observeRequest struct {
	// Model is the default model for samples that do not carry their own.
	Model   string          `json:"model,omitempty"`
	Samples []observeSample `json:"samples"`
}

// observeModelResult reports what the batch did to one model.
type observeModelResult struct {
	Model      string `json:"model"`
	Accepted   int    `json:"accepted"`
	Buckets    int    `json:"buckets"`
	Reliable   int    `json:"reliable"`
	Rebuilt    bool   `json:"rebuilt"`
	Applied    bool   `json:"applied"`
	Generation uint64 `json:"generation,omitempty"`
	Suppressed bool   `json:"suppressed,omitempty"`
}

type observeResponse struct {
	Accepted int                  `json:"accepted"`
	Models   []observeModelResult `json:"models"`
}

// maxObserveSamples bounds one observe batch; larger batches are a client
// bug (or abuse) and are rejected up front with a 400.
const maxObserveSamples = 4096

// Refiner exposes the online refiner (nil unless Config.EnableObserve) for
// tests and embedding tools.
func (s *Server) Refiner() *refine.Refiner { return s.refiner }

// refineRegistry adapts the server's model registry to refine.Registry:
// publishes go through PutAt at the refined generation (never silently
// minting a new one — highest-wins keeps replicas convergent) and, when the
// write is applied in cluster mode, replicate to peers like any other
// accepted model write.
type refineRegistry struct{ s *Server }

func (a refineRegistry) Current(id string) (*fpm.PiecewiseLinear, uint64, error) {
	m, err := a.s.Models.Get(id)
	if err != nil {
		return nil, 0, err
	}
	return m.PL, m.Gen, nil
}

func (a refineRegistry) Publish(id string, pl *fpm.PiecewiseLinear, gen uint64) (bool, error) {
	applied, err := a.s.Models.PutAt(id, pl, gen)
	if err != nil || !applied {
		return applied, err
	}
	if c := a.s.cfg.Cluster; c != nil {
		// Replicate the registered wire form (PutAt marshaled it); a
		// concurrent writer may already have advanced the model, in which
		// case replicating the newer state is just early anti-entropy.
		if m, gerr := a.s.Models.Get(id); gerr == nil {
			c.ReplicateModel(id, m.Gen, m.Raw)
		}
	}
	return true, nil
}

func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	var req observeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if len(req.Samples) == 0 {
		writeError(w, http.StatusBadRequest, "samples must be non-empty")
		return
	}
	if len(req.Samples) > maxObserveSamples {
		writeError(w, http.StatusBadRequest, "too many samples (%d > %d)", len(req.Samples), maxObserveSamples)
		return
	}

	// Validate the whole batch before feeding any of it to the refiner, so a
	// bad sample can never leave a partial batch behind (and client bugs
	// surface as 400s, not 500s or silent skew).
	byModel := map[string][]refine.Sample{}
	var order []string
	for i, smp := range req.Samples {
		id := smp.Model
		if id == "" {
			id = req.Model
		}
		if id == "" {
			writeError(w, http.StatusBadRequest, "sample %d: model required", i)
			return
		}
		if !(smp.Size > 0) || math.IsInf(smp.Size, 0) {
			writeError(w, http.StatusBadRequest, "sample %d: size must be positive and finite, got %v", i, smp.Size)
			return
		}
		if !(smp.Seconds > 0) || math.IsInf(smp.Seconds, 0) {
			writeError(w, http.StatusBadRequest, "sample %d: seconds must be positive and finite, got %v", i, smp.Seconds)
			return
		}
		if _, ok := byModel[id]; !ok {
			if _, err := s.Models.Get(id); err != nil {
				if errors.Is(err, ErrNotFound) {
					writeError(w, http.StatusBadRequest, "sample %d: unknown model %q", i, id)
					return
				}
				writeError(w, http.StatusInternalServerError, "%v", err)
				return
			}
			order = append(order, id)
		}
		byModel[id] = append(byModel[id], refine.Sample{Size: smp.Size, Seconds: smp.Seconds})
	}
	sort.Strings(order)

	// Cluster routing: refinement for a model must happen on exactly one
	// member — its ring owner — or two members rebuild concurrently and race
	// generations through highest-wins replication, losing samples. Split
	// the validated batch by owner, forward each remote sub-batch one hop
	// (ForwardedHeader stops loops, as with partition forwards), and refine
	// the local share here. A transport failure falls back to refining
	// locally: degraded-mode samples still land, at the cost of a possible
	// race until the owner is reachable again.
	cluster := s.cfg.Cluster
	forwarded := r.Header.Get(ForwardedHeader) != ""
	localIDs := order
	remote := map[string][]string{}
	if cluster != nil && !forwarded {
		localIDs = localIDs[:0:0]
		for _, id := range order {
			if peer, self := cluster.Owner(id); !self {
				remote[peer] = append(remote[peer], id)
			} else {
				localIDs = append(localIDs, id)
			}
		}
	}

	out := observeResponse{Models: make([]observeModelResult, 0, len(order))}
	var peers []string
	for peer := range remote {
		peers = append(peers, peer)
	}
	sort.Strings(peers)
	for _, peer := range peers {
		ids := remote[peer]
		merged, ok := s.forwardObserve(ctx, peer, ids, byModel)
		if ok {
			out.Accepted += merged.Accepted
			out.Models = append(out.Models, merged.Models...)
			continue
		}
		// Fallback: the owner is unreachable; refine locally rather than
		// dropping the samples.
		localIDs = append(localIDs, ids...)
	}
	sort.Strings(localIDs)

	endRefine := telemetry.Stage(ctx, "refine")
	for _, id := range localIDs {
		res, err := s.refiner.Observe(id, byModel[id])
		if err != nil {
			endRefine()
			// The batch passed validation, so a refiner error here is a lost
			// race with a concurrent model delete — still the client's 4xx,
			// not a server fault.
			writeError(w, http.StatusConflict, "refine %q: %v", id, err)
			return
		}
		out.Accepted += res.Accepted
		mr := observeModelResult{
			Model:      id,
			Accepted:   res.Accepted,
			Buckets:    res.Buckets,
			Reliable:   res.Reliable,
			Rebuilt:    res.Rebuilt,
			Applied:    res.Applied,
			Generation: res.Generation,
			Suppressed: res.Suppressed,
		}
		if mr.Applied {
			telemetry.AnnotateTrace(ctx, "refined."+id, "applied")
		}
		out.Models = append(out.Models, mr)
	}
	endRefine()
	sort.Slice(out.Models, func(i, j int) bool { return out.Models[i].Model < out.Models[j].Model })
	s.writeResult(ctx, w, http.StatusOK, &out)
}

// forwardObserve ships the sub-batch for ids to their ring owner and merges
// the owner's per-model results. ok=false means the caller should refine
// locally (transport failure, non-200, or an unparseable relay).
func (s *Server) forwardObserve(ctx context.Context, peer string, ids []string, byModel map[string][]refine.Sample) (observeResponse, bool) {
	var freq observeRequest
	for _, id := range ids {
		for _, smp := range byModel[id] {
			freq.Samples = append(freq.Samples, observeSample{
				Model: id, Size: smp.Size, Seconds: smp.Seconds,
			})
		}
	}
	body, err := json.Marshal(&freq)
	if err != nil {
		return observeResponse{}, false
	}
	telemetry.AnnotateTrace(ctx, "observe_forward_peer", peer)
	status, respBody, ferr := s.cfg.Cluster.ForwardObserve(ctx, peer, body, telemetry.TraceFrom(ctx).ID())
	if ferr != nil || status != http.StatusOK {
		observeForwardsTotal("fallback").Inc()
		telemetry.AnnotateTrace(ctx, "observe_forward", "fallback")
		return observeResponse{}, false
	}
	var merged observeResponse
	if err := json.Unmarshal(respBody, &merged); err != nil {
		observeForwardsTotal("fallback").Inc()
		return observeResponse{}, false
	}
	observeForwardsTotal("ok").Inc()
	return merged, true
}

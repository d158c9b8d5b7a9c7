package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/results"
)

// This file is the distributed-execution HTTP surface. Every htserved
// instance is a capable worker: POST /v1/shards executes one campaign
// shard synchronously and streams back its epochs and payload (raw
// per-cell values or a whole typed table — see
// internal/campaign/shard.go). A server built with coordinator options
// additionally exposes POST/GET /v1/workers so workers can join the
// pool at runtime (`htserved -worker -coordinator=URL`), and its
// campaign jobs execute through internal/dist instead of the local
// builder.

// handleRunShard executes one shard on this worker. Execution is
// synchronous — the coordinator holds the request open — and bounded by
// the same job gate queued jobs use, so shard traffic and local jobs
// share one concurrency budget instead of oversubscribing the machine.
// Build-fingerprint mismatches are rejected with 409: merging bytes
// from heterogeneous builds would silently break the byte-identity
// contract.
//
// The reply is NDJSON: per-epoch frames flushed live while the shard
// runs, then one terminal frame carrying the result (plus this worker's
// span subtree, rooted under the coordinator's Traceparent) or the
// error. Pre-execution rejections (bad request, build mismatch, gate
// refusal, shard.run fault) answer plain HTTP errors — streaming begins
// only once execution does.
func (s *Server) handleRunShard(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req dist.ShardRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("shard request: %w", err))
		return
	}
	if req.Revision != results.Revision() || req.Go != runtime.Version() {
		writeError(w, http.StatusConflict, fmt.Errorf(
			"build mismatch: worker is %s/%s, coordinator is %s/%s — distributed byte-identity requires homogeneous builds",
			results.Revision(), runtime.Version(), req.Revision, req.Go))
		return
	}
	// The shard.run fault point models a worker that accepts shards but
	// cannot execute them (failing disk, poisoned build): an injected
	// error answers 500, which the coordinator treats as a failed attempt
	// and redispatches elsewhere.
	if err := s.jobs.faults.Fire(r.Context(), "shard.run"); err != nil {
		s.logger.Warn("shard execution fault injected", "fault_point", "shard.run", "shard", req.Shard.String(), "error", err)
		writeError(w, http.StatusInternalServerError, fmt.Errorf("shard execution failed: %w", err))
		return
	}
	if err := s.jobs.gate.Acquire(r.Context()); err != nil {
		// Same contract as the degraded /v1/healthz 503: tell the caller
		// when to come back instead of leaving it to guess.
		w.Header().Set("Retry-After", strconv.Itoa(s.jobs.retryAfterSeconds()))
		writeError(w, http.StatusServiceUnavailable, errors.New("worker shutting down"))
		return
	}
	defer s.jobs.gate.Release()
	s.streamShard(w, r, req)
}

// streamShard runs one shard under the worker-side trace root and
// answers the NDJSON stream. Epoch frames are written (and flushed)
// from the simulation goroutines as samples arrive; the write mutex
// keeps frames whole. Failures after the stream opens travel as the
// terminal error frame — the HTTP status is already committed.
func (s *Server) streamShard(w http.ResponseWriter, r *http.Request, req dist.ShardRequest) {
	ctx, root := obs.JoinTrace(r.Context(), req.Traceparent, "worker.execute")
	root.SetAttr("shard", req.Shard.String())
	if !s.opts.DisableTracing {
		defer root.End()
	} else {
		// Tracing off: run unobserved but keep the stream contract (the
		// coordinator still wants live epochs and the terminal frame).
		ctx, root = r.Context(), nil
	}

	w.Header().Set("Content-Type", dist.NDJSONContentType)
	w.WriteHeader(http.StatusOK)
	var (
		wmu sync.Mutex
		enc = json.NewEncoder(w)
		fl  http.Flusher
	)
	fl, _ = w.(http.Flusher)
	writeFrame := func(f dist.StreamFrame) {
		wmu.Lock()
		defer wmu.Unlock()
		if enc.Encode(f) == nil && fl != nil {
			fl.Flush()
		}
	}

	var seq int64
	observer := core.ObserverFunc(func(sample core.EpochSample) {
		n := atomic.AddInt64(&seq, 1)
		writeFrame(dist.StreamFrame{Epoch: &dist.EpochFrame{Seq: n, Experiment: req.Shard.Experiment.ID, Sample: sample}})
	})

	runCtx, span := obs.StartSpan(ctx, "shard.run")
	res, err := campaign.RunShard(runCtx, req.Shard, s.opts.Workers, observer)
	span.RecordError(err)
	span.End()
	if err != nil {
		s.logger.Warn("shard execution failed", "shard", req.Shard.String(), "trace_id", root.TraceID(), "error", err)
		root.RecordError(err)
		root.End()
		writeFrame(dist.StreamFrame{Error: err.Error(), Trace: root.Tree()})
		return
	}
	s.metrics.inc(&s.metrics.shardsExecuted)
	root.End()
	writeFrame(dist.StreamFrame{Result: res, Trace: root.Tree()})
}

// handleRegisterWorker joins a worker to the coordinator's pool. Body:
// {"url": "http://host:port"}. Registration doubles as the heartbeat —
// workers re-POST on a cadence, and the call is idempotent — so the
// response carries the worker's stable pool id, which the graceful-
// drain DELETE names. The worker.heartbeat fault point models a
// coordinator that accepts connections but cannot update its pool
// (an injected error answers 500, exercising the worker's registration
// backoff).
func (s *Server) handleRegisterWorker(w http.ResponseWriter, r *http.Request) {
	if s.coord == nil {
		writeError(w, http.StatusNotFound, errors.New("not a coordinator"))
		return
	}
	if err := s.faults.Fire(r.Context(), "worker.heartbeat"); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("heartbeat failed: %w", err))
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	var req struct {
		URL string `json:"url"`
	}
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !strings.HasPrefix(req.URL, "http://") && !strings.HasPrefix(req.URL, "https://") {
		writeError(w, http.StatusBadRequest, fmt.Errorf("worker url %q must be absolute (http:// or https://)", req.URL))
		return
	}
	id, added := s.coord.Register(req.URL)
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "added": added, "workers": s.coord.WorkerURLs()})
}

// handleDeregisterWorker removes a worker from the pool by the id its
// registration returned — the graceful-drain path: a SIGTERMed worker
// finishes its in-flight shards, then deregisters so the coordinator
// stops placing new ones on it. A repeated DELETE of an already-gone
// id answers 404, which drain loops treat as success.
func (s *Server) handleDeregisterWorker(w http.ResponseWriter, r *http.Request) {
	if s.coord == nil {
		writeError(w, http.StatusNotFound, errors.New("not a coordinator"))
		return
	}
	if !s.coord.Remove(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, errors.New("unknown worker id"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": true, "workers": s.coord.WorkerURLs()})
}

// handleListWorkers reports the pool with a live reachability sweep —
// the same sweep /v1/healthz readiness folds into its quorum verdict.
func (s *Server) handleListWorkers(w http.ResponseWriter, r *http.Request) {
	if s.coord == nil {
		writeError(w, http.StatusNotFound, errors.New("not a coordinator"))
		return
	}
	writeJSON(w, http.StatusOK, s.coord.Health(r.Context()))
}

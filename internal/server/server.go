// Package server is the concurrent simulation service behind the
// htserved binary: an HTTP API (stdlib net/http only) that accepts whole
// campaign specs (POST /v1/campaigns, the same JSON schema as
// specs/paper.json) and single-sim requests (POST /v1/sims, built through
// htsim.BuildConfig), runs them on a bounded FIFO job queue with 429
// backpressure and per-job cancellation (DELETE /v1/jobs/{id}), and
// serves results from a content-addressed cache keyed by the submission's
// parameter fingerprint plus the binary revision — an identical
// submission returns instantly without re-simulation. Live progress
// bridges the pkg/htsim Observer API to Server-Sent Events
// (GET /v1/jobs/{id}/events): typed per-epoch samples carrying request,
// tampering, grant, throttle-level, and running-infection counts.
// Artifacts (GET /v1/jobs/{id}/artifacts/{table}.{json,csv,txt}) render
// through the single internal/results serialization path, so a fetched
// artifact is byte-identical to the file `htcampaign run` writes for the
// same spec. GET /v1/plugins, /v1/healthz, and /v1/metrics expose the
// plugin registries, live-vs-ready health, and counters — as an
// expvar-style JSON object by default, or as Prometheus text exposition
// (?format=prometheus) with queue/cache/SSE families and a job-duration
// histogram; both renderings come from one atomic snapshot, so a scrape
// never sees torn cross-counter invariants.
//
// The service is built to degrade, not collapse (the chaos suite in
// chaos_test.go drives every failure path through the
// internal/faultinject registry): panics are contained per job and per
// request (panics_recovered), jobs run under optional --job-timeout
// deadlines, identical in-flight submissions coalesce single-flight
// instead of stampeding the simulator, corrupt disk-cache entries are
// checksum-detected, quarantined, and recomputed, full queues shed load
// with 429 + Retry-After, and SSE fan-out buffers slow subscribers with
// a drop-oldest policy plus Last-Event-ID resume. See DESIGN.md §9 for
// the failure-modes matrix.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/dist"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/pkg/htsim"
)

// Options configure a Server. The zero value is usable: one job at a
// time, a 16-deep queue, a 64-entry memory cache, no disk spill.
type Options struct {
	// Workers is the exp-pool budget each running job fans its experiments
	// and trials out over (0 = one per CPU). Results are bit-identical for
	// any value.
	Workers int
	// Jobs bounds concurrently running jobs (default 1). The total CPU
	// budget is shared: every admitted job gets the same Workers budget,
	// and the Go scheduler time-slices them.
	Jobs int
	// QueueDepth bounds the FIFO queue; a submission past the depth is
	// rejected with 429 (default 16).
	QueueDepth int
	// CacheEntries sizes the in-memory LRU result cache (default 64).
	CacheEntries int
	// CacheDir, when non-empty, spills every cached result to disk as
	// rendered artifacts that survive LRU eviction and restarts.
	CacheDir string
	// JobTimeout bounds each job's life after it leaves the queue: the
	// wait for a job slot plus the simulation itself. An expired job fails
	// with a structured deadline error (counted in jobs_timed_out); 0
	// disables the deadline.
	JobTimeout time.Duration
	// SSEBuffer is each SSE subscriber's event channel capacity (default
	// 1024). A subscriber that falls further behind loses its oldest
	// buffered events (drop-oldest, counted in sse_events_dropped) rather
	// than stalling the simulation or being disconnected.
	SSEBuffer int
	// SSEWriteTimeout bounds each individual SSE frame write (default
	// 10s; negative disables). A subscriber whose TCP window stays full
	// past the deadline has its connection errored and its slot released
	// — stalled consumers cost one connection, never a pinned handler
	// goroutine.
	SSEWriteTimeout time.Duration
	// Faults is the fault-injection registry driving chaos tests
	// (cmd/htserved builds it from the HTSERVED_FAULTS environment
	// variable). Nil disables injection — every fault point passes clean.
	Faults *faultinject.Set
	// JournalDir, when non-empty, enables the write-ahead job journal:
	// accepted submissions are fsync'd there before their 202, and on
	// boot every accept that never reached a terminal state is replayed
	// in original lane order — a kill -9 restart finishes the backlog
	// instead of losing it (DESIGN.md §12).
	JournalDir string
	// CheckpointDir, when non-empty on a coordinator, spills completed
	// shard results to disk (sha256-verified, quarantine on corruption)
	// so a resumed campaign recomputes only shards that never finished.
	// Defaults to <JournalDir>/shard-checkpoints when journaling is on.
	CheckpointDir string
	// HedgeDelay tunes straggler hedging on a coordinator: after this
	// long without an answer, a shard is speculatively redispatched to a
	// second worker and the first byte-complete result wins. 0 derives
	// the delay adaptively from the observed dispatch p99; negative
	// disables hedging.
	HedgeDelay time.Duration

	// Coordinator enables coordinator mode: campaign jobs are sharded
	// across the worker pool through internal/dist instead of running in
	// this process, and the /v1/workers registration endpoints open up.
	// Implied by a non-empty WorkerURLs; set it explicitly to start a
	// coordinator whose workers all join dynamically.
	Coordinator bool
	// WorkerURLs seeds the coordinator's worker pool with static
	// htserved base URLs; more workers may register at runtime.
	WorkerURLs []string
	// MaxShards bounds how many shards one experiment's trial space
	// splits into (default: twice the static pool, at least 2).
	MaxShards int
	// ShardRetries is how many extra dispatch attempts a failed shard
	// gets, each on the next worker round-robin (default 2).
	ShardRetries int
	// ShardTimeout bounds one shard dispatch attempt (default 5m).
	ShardTimeout time.Duration
	// TenantQuota caps queued-plus-running jobs per tenant (X-Tenant
	// header); beyond it submissions shed with 429, counted per tenant.
	// 0 means no per-tenant cap; anonymous submissions are never capped.
	TenantQuota int

	// Logger receives the service's structured event stream (job
	// lifecycle, fault firings, cache quarantines, dispatch chaos) with
	// trace_id/job_id/shard/tenant/worker attrs. Nil discards — embedders
	// and tests stay quiet by default; cmd/htserved wires os.Stderr
	// through the --log-format/--log-level flags.
	Logger *slog.Logger
	// DisableTracing turns the per-job span trees off. The zero value
	// traces: spans are job-lifecycle-granular (never per-epoch) and the
	// disabled path is the only thing cheaper. With tracing off
	// GET /v1/jobs/{id}/trace answers 404 and the latency-attribution
	// histograms stay at zero.
	DisableTracing bool
	// EnablePprof mounts the net/http/pprof handlers under /debug/pprof
	// on the service mux (off by default: profiling endpoints are a
	// deliberate operator opt-in, not ambient surface).
	EnablePprof bool
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Jobs < 1 {
		o.Jobs = 1
	}
	if o.QueueDepth < 1 {
		o.QueueDepth = 16
	}
	if o.CacheEntries < 1 {
		o.CacheEntries = 64
	}
	if o.SSEWriteTimeout == 0 {
		o.SSEWriteTimeout = 10 * time.Second
	}
	if len(o.WorkerURLs) > 0 {
		o.Coordinator = true
	}
	if o.Coordinator && o.CheckpointDir == "" && o.JournalDir != "" {
		o.CheckpointDir = filepath.Join(o.JournalDir, "shard-checkpoints")
	}
	if o.Logger == nil {
		o.Logger = obs.Discard()
	}
	return o
}

// Server is the simulation service. Construct with New, mount Handler,
// and Close on shutdown to cancel running jobs.
type Server struct {
	opts    Options
	cache   *cache
	metrics *counters
	faults  *faultinject.Set
	logger  *slog.Logger
	jobs    *manager
	// coord is non-nil in coordinator mode; campaign jobs then execute
	// through it instead of the local campaign builder.
	coord *dist.Coordinator
	mux   *http.ServeMux
}

// New builds a Server (creating the cache and journal directories when
// configured), replays any journaled backlog, and starts the job
// dispatcher. Replay is synchronous: by the time New returns, every
// non-terminal journaled job is back in its original lane and the
// compacted journal has atomically replaced the old one — a crash
// mid-replay leaves the previous journal intact to replay again.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	metrics := newCounters()
	logger := opts.Logger
	c, err := newCache(opts.CacheEntries, opts.CacheDir, opts.Faults, func() {
		metrics.inc(&metrics.cacheCorrupt)
		logger.Warn("corrupt disk-cache entry quarantined")
	})
	if err != nil {
		return nil, fmt.Errorf("server: cache dir: %w", err)
	}
	s := &Server{
		opts:    opts,
		cache:   c,
		metrics: metrics,
		faults:  opts.Faults,
		logger:  logger,
	}
	if opts.Coordinator {
		coord, err := dist.New(dist.Options{
			Workers:       opts.WorkerURLs,
			MaxShards:     opts.MaxShards,
			Retries:       opts.ShardRetries,
			ShardTimeout:  opts.ShardTimeout,
			CheckpointDir: opts.CheckpointDir,
			HedgeDelay:    opts.HedgeDelay,
			Faults:        opts.Faults,
			Logger:        logger,
			Observe: dist.Observe{
				Dispatched:    metrics.shardDispatched,
				Retried:       func() { metrics.inc(&metrics.shardRetries) },
				CacheHit:      func() { metrics.inc(&metrics.shardCacheHits) },
				Checkpointed:  func() { metrics.inc(&metrics.shardsCheckpointed) },
				Resumed:       func() { metrics.inc(&metrics.shardsResumed) },
				Hedged:        func() { metrics.inc(&metrics.shardHedges) },
				BreakerOpened: func() { metrics.inc(&metrics.breakerOpens) },
				ShardRTT:      metrics.observeShardRTT,
			},
		})
		if err != nil {
			return nil, fmt.Errorf("server: coordinator: %w", err)
		}
		s.coord = coord
	}
	var jn *journal
	var pending []journalRecord
	var logPath, newPath string
	if opts.JournalDir != "" {
		if err := os.MkdirAll(opts.JournalDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: journal dir: %w", err)
		}
		logPath = filepath.Join(opts.JournalDir, journalFile)
		newPath = logPath + ".new"
		recs, err := readJournal(logPath)
		if err != nil {
			return nil, fmt.Errorf("server: journal: %w", err)
		}
		pending = pendingRecords(recs)
		if jn, err = openJournal(newPath, opts.Faults, func() { metrics.inc(&metrics.journalAppends) }); err != nil {
			return nil, fmt.Errorf("server: journal: %w", err)
		}
	}
	s.jobs = newManager(opts, s.cache, s.metrics, opts.Faults, s.coord, jn)
	if err := s.replayJournal(pending); err != nil {
		s.jobs.shutdown()
		return nil, err
	}
	if jn != nil {
		// The swap commits the compaction: replayed accepts are already
		// re-journaled in the new file (whose fd stays valid across the
		// rename), and completed or rejected history is gone.
		if err := os.Rename(newPath, logPath); err != nil {
			s.jobs.shutdown()
			return nil, fmt.Errorf("server: journal swap: %w", err)
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/campaigns", s.handleSubmitCampaign)
	s.mux.HandleFunc("POST /v1/sims", s.handleSubmitSim)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleDeleteJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("GET /v1/jobs/{id}/artifacts/{file}", s.handleArtifact)
	s.mux.HandleFunc("GET /v1/plugins", s.handlePlugins)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	// Every instance can execute shards; the registration endpoints
	// answer 404 unless this server is a coordinator.
	s.mux.HandleFunc("POST "+dist.ShardPath, s.handleRunShard)
	s.mux.HandleFunc("POST /v1/workers", s.handleRegisterWorker)
	s.mux.HandleFunc("GET /v1/workers", s.handleListWorkers)
	s.mux.HandleFunc("DELETE /v1/workers/{id}", s.handleDeregisterWorker)
	if opts.EnablePprof {
		// Explicit mounts on the service mux — never the blank-import
		// DefaultServeMux registration, which would expose profiling on
		// any handler sharing the process.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// handleJobTrace serves a job's span tree as JSON — in progress or
// finished (unfinished spans render with in_progress and their duration
// so far). 404 with tracing disabled: absence of a trace is the
// documented signal, not an empty tree.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	root := j.traceRoot()
	if root == nil {
		writeError(w, http.StatusNotFound, errors.New("tracing disabled"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"trace_id": root.TraceID(),
		"job_id":   j.id,
		"root":     root.Tree(),
	})
}

// replayJournal resubmits the journal's pending accepts in their
// original sequence order, before the listener opens. Replayed jobs
// bypass the admission guards (queue depth, tenant quota) — each held a
// slot when first accepted — and are re-journaled into the new live
// journal by the normal accept path. The journal.replay fault point
// models a poisoned record: an injected error fails boot, matching the
// contract that New never half-replays silently.
func (s *Server) replayJournal(pending []journalRecord) error {
	for _, rec := range pending {
		if err := s.faults.Fire(context.Background(), "journal.replay"); err != nil {
			return fmt.Errorf("server: journal replay: %w", err)
		}
		j, err := replayJob(rec)
		if err != nil {
			// The record fsync'd whole but no longer builds a job (schema
			// drift across a version boundary); skipping it is the crash
			// semantics the journal already promises for torn records.
			continue
		}
		if err := s.jobs.submit(j); err != nil {
			return fmt.Errorf("server: journal replay: %w", err)
		}
		s.metrics.inc(&s.metrics.journalReplayed)
	}
	return nil
}

// replayJob rebuilds a submittable job from an accept record, through
// the same parsers the original POST handler used. The cache key is
// recomputed from the body rather than trusted from the record, so a
// replay under a different binary revision correctly misses the cache
// and re-simulates.
func replayJob(rec journalRecord) (*job, error) {
	lane, err := parseLane(rec.Lane)
	if err != nil {
		lane = laneNormal
	}
	j := &job{
		kind:   rec.Kind,
		name:   rec.Name,
		lane:   lane,
		tenant: rec.Tenant,
		body:   []byte(rec.Body),
		replay: true,
	}
	switch rec.Kind {
	case "campaign":
		spec, err := campaign.ParseSpec(j.body)
		if err != nil {
			return nil, err
		}
		j.spec = spec
		j.cacheKey = cacheKeyFor("campaign", spec)
	case "sim":
		req, err := parseSimRequest(j.body)
		if err != nil {
			return nil, err
		}
		j.sim = req
		j.cacheKey = cacheKeyFor("sim", req.cachePayload())
	default:
		return nil, fmt.Errorf("unknown journaled job kind %q", rec.Kind)
	}
	return j, nil
}

// Handler returns the service's HTTP handler, wrapped in the
// per-request recovery layer: a panic in any handler (including one
// injected via the queue.admit fault point) answers that one request
// with a 500 and a counted recovery instead of tearing the connection
// down with a stack trace — and the listener, the dispatcher, and every
// other request keep going.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					// The stdlib's deliberate abort sentinel keeps its meaning.
					panic(rec)
				}
				s.metrics.inc(&s.metrics.panicsRecovered)
				// If the handler already started its response the header is
				// gone; the broken stream is the remaining signal.
				writeError(w, http.StatusInternalServerError, fmt.Errorf("internal panic (recovered): %v", rec))
			}
		}()
		s.mux.ServeHTTP(w, r)
	})
}

// Close cancels every queued and running job and waits for workers to
// unwind. The HTTP listener's lifecycle belongs to the caller.
func (s *Server) Close() { s.jobs.shutdown() }

// maxBodyBytes bounds submission bodies; campaign specs are small.
const maxBodyBytes = 1 << 20

// writeJSON renders one JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// writeError renders a JSON error body.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// submit runs the shared enqueue-or-reject tail of both POST handlers.
// The X-Priority header picks the job's queue lane (high, normal, low;
// default normal) and X-Tenant attributes it to a tenant for quota
// accounting. Shed submissions — full queue or exhausted tenant quota —
// get 429 with a Retry-After backoff hint sized to the backlog: load
// shedding is explicit and negotiable, never a silent drop or a
// collapse.
func (s *Server) submit(w http.ResponseWriter, r *http.Request, j *job) {
	lane, err := parseLane(r.Header.Get("X-Priority"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	j.lane = lane
	j.tenant = r.Header.Get("X-Tenant")
	if err := s.jobs.submit(j); err != nil {
		if errors.Is(err, errQueueFull) || errors.Is(err, errTenantQuota) {
			w.Header().Set("Retry-After", strconv.Itoa(s.jobs.retryAfterSeconds()))
			writeError(w, http.StatusTooManyRequests, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

// handleSubmitCampaign accepts a campaign spec (the specs/paper.json
// schema) and queues it as one job.
func (s *Server) handleSubmitCampaign(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	spec, err := campaign.ParseSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.submit(w, r, &job{
		kind:     "campaign",
		name:     spec.Name,
		spec:     spec,
		body:     body,
		cacheKey: cacheKeyFor("campaign", spec),
	})
}

// handleSubmitSim accepts a single-sim request and queues it as one job.
func (s *Server) handleSubmitSim(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	req, err := parseSimRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.submit(w, r, &job{
		kind:     "sim",
		name:     fmt.Sprintf("sim %s x%d", req.Mix, req.Threads),
		sim:      req,
		body:     body,
		cacheKey: cacheKeyFor("sim", req.cachePayload()),
	})
}

// handleListJobs lists every job in submission order.
func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.list()})
}

// handleGetJob returns one job's status.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// handleDeleteJob cancels a queued or running job.
func (s *Server) handleDeleteJob(w http.ResponseWriter, r *http.Request) {
	found, err := s.jobs.cancelJob(r.PathValue("id"))
	if !found {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"state": "cancelling"})
}

// artifactName validates {file} path values: a lower-case table name plus
// a rendering format ("e3.json", "run.csv", ...).
var artifactName = regexp.MustCompile(`^([a-z0-9_-]+)\.(json|csv|txt)$`)

// handleArtifact serves one rendered artifact of a finished job, either
// from the in-memory tables (rendered on demand through the
// internal/results emitters) or streamed from the disk cache tier.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.lookup(r.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, errors.New("unknown job"))
		return
	}
	m := artifactName.FindStringSubmatch(r.PathValue("file"))
	if m == nil {
		writeError(w, http.StatusNotFound, errors.New("artifact names look like e3.json, e3.csv, or e3.txt"))
		return
	}
	base, format := m[1], m[2]
	j.mu.Lock()
	state := j.state
	tables := j.tables
	fromDisk := len(j.diskFiles) > 0
	j.mu.Unlock()
	if state != jobDone {
		writeError(w, http.StatusConflict, fmt.Errorf("job is %s; artifacts exist once it is done", state))
		return
	}
	if fromDisk {
		f, err := s.cache.disk.Open(j.cacheKey, base+"."+format)
		if err != nil {
			writeError(w, http.StatusNotFound, errors.New("no such artifact"))
			return
		}
		defer f.Close()
		w.Header().Set("Content-Type", results.ContentType(format))
		io.Copy(w, f)
		return
	}
	for _, t := range tables {
		if strings.ToLower(t.TableMeta().Experiment) != base {
			continue
		}
		w.Header().Set("Content-Type", results.ContentType(format))
		if err := results.WriteFormat(w, t, format); err != nil {
			// Headers are gone; the broken stream is the best signal left.
			return
		}
		return
	}
	writeError(w, http.StatusNotFound, errors.New("no such artifact"))
}

// handlePlugins enumerates every plugin axis and its registered names —
// the service-side mirror of `htcampaign list`.
func (s *Server) handlePlugins(w http.ResponseWriter, r *http.Request) {
	axes := htsim.Axes()
	out := make([]map[string]any, 0, len(axes))
	for _, a := range axes {
		out = append(out, map[string]any{"axis": a.Name, "plugins": a.Plugins})
	}
	writeJSON(w, http.StatusOK, map[string]any{"axes": out})
}

// handleHealthz is the health probe, distinguishing live from ready:
// live means the process is serving HTTP at all (always true if this
// handler runs), ready means it can accept new work (queue has room,
// not shutting down — and, on a coordinator, a quorum of the worker
// pool reachable: a majority, at least one). A degraded service answers
// 503 with live=true so orchestrators stop routing new traffic without
// restarting it; ?probe=live always answers 200 for pure liveness
// checks and never sweeps the worker pool.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ready := s.jobs.ready()
	body := map[string]any{
		"live":     true,
		"ready":    ready,
		"revision": results.Revision(),
	}
	if r.URL.Query().Get("probe") == "live" {
		body["status"] = "ok"
		writeJSON(w, http.StatusOK, body)
		return
	}
	if s.coord != nil {
		pool := s.coord.Health(r.Context())
		body["workers"] = pool
		if !pool.Ready() {
			ready = false
			body["ready"] = false
		}
	}
	status := http.StatusOK
	body["status"] = "ok"
	if !ready {
		status = http.StatusServiceUnavailable
		body["status"] = "degraded"
		w.Header().Set("Retry-After", strconv.Itoa(s.jobs.retryAfterSeconds()))
	}
	writeJSON(w, status, body)
}

// handleMetrics snapshots the counters — once, in a single lock
// acquisition — and renders the snapshot in the requested format: the
// original expvar-style JSON object (default, byte-compatible with every
// earlier release) or Prometheus text exposition (?format=prometheus,
// adding the job-duration histogram and the gauges a scraper wants).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format != "" && format != "prometheus" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown metrics format %q (known: prometheus)", format))
		return
	}
	queued, running := s.jobs.queueDepths()
	v := s.metrics.view(queued, running, s.jobs.sseSubscribers(), s.faults.Counts())
	if format == "prometheus" {
		w.Header().Set("Content-Type", promContentType)
		v.writePrometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, v.json())
}

package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/exp"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/pkg/htsim"
)

// This file is the bounded job manager: submissions enter a FIFO queue
// with a depth limit (a full queue rejects with 429 backpressure), a
// dispatcher starts them in order through an exp.Gate bounding concurrent
// jobs, and every job runs under its own cancellable context so
// DELETE /v1/jobs/{id} aborts it promptly mid-simulation.
//
// The execution path assumes jobs will misbehave: each job runs behind a
// recover barrier (a panicking simulation fails that one job with a
// structured error and a counted recovery — the dispatcher and every
// other job keep going), under an optional per-job deadline
// (--job-timeout, covering both the gate wait and the run), and behind
// single-flight coalescing — a submission identical to a queued or
// running job becomes a follower that waits for the leader's result
// instead of occupying a queue slot or re-simulating (stampede
// protection, counted as single_flight_dedup).

// jobState is a job's lifecycle phase.
type jobState string

// Job lifecycle: queued → running → done | failed | cancelled (queued
// jobs may also be cancelled directly).
const (
	jobQueued    jobState = "queued"
	jobRunning   jobState = "running"
	jobDone      jobState = "done"
	jobFailed    jobState = "failed"
	jobCancelled jobState = "cancelled"
)

// errQueueFull rejects a submission when the queue is at depth (across
// all priority lanes).
var errQueueFull = errors.New("server: job queue full")

// errTenantQuota rejects a submission whose tenant already has its full
// quota of jobs queued or running.
var errTenantQuota = errors.New("server: tenant quota exceeded")

// job is one queued/running/finished unit of work: a whole campaign spec
// or a single-sim request.
type job struct {
	id       string
	kind     string // "campaign" | "sim"
	name     string
	cacheKey string
	// lane is the priority lane (X-Priority header); tenant attributes
	// the job for quota accounting (X-Tenant header, may be empty).
	lane   int
	tenant string
	// body is the raw request payload, kept for the write-ahead journal
	// (nil when journaling is off); jseq is the job's accept-record
	// sequence number there (0 = not journaled); journal is the manager's
	// journal (nil-safe), held per job so the terminal transition can
	// append its record from finishLocked without reaching for the
	// manager. replay marks a job resubmitted from the journal at boot —
	// it bypasses the queue depth bound and tenant quotas, which applied
	// at its original admission.
	body    []byte
	jseq    int64
	journal *journal
	replay  bool
	events  *eventLog
	// metrics is the service's counter set (set at submission); the
	// terminal transition observes the job's end-to-end duration into
	// its job_duration_seconds histogram.
	metrics *counters
	// epochs counts streamed samples (also aggregated in counters).
	epochs atomic.Int64
	// trace is the job's root span (nil with tracing disabled); queueSpan
	// is the queue.wait child, started at enqueue and ended by the
	// dispatcher after pop — the one span whose life a context cannot
	// follow. Both are written once in submit, before the job is
	// registered, and only read afterwards.
	trace     *obs.Span
	queueSpan *obs.Span

	// spec is set for campaign jobs, sim for sim jobs.
	spec *campaign.Spec
	sim  *htsim.Request

	mu        sync.Mutex
	state     jobState
	cacheTier string // "", "memory", "disk" — how the result was served
	errMsg    string
	tables    []results.Table
	diskFiles []string
	cancel    context.CancelFunc
	created   time.Time
	started   time.Time
	finished  time.Time
}

// newJob builds a job from a submission body of the given kind: a
// campaign spec (the specs/paper.json schema) or a sim request
// (htsim.Request). It is the one constructor behind both POST handlers
// and journal replay, so a replayed job is parsed, named and keyed
// exactly as its original was.
func newJob(kind string, body []byte) (*job, error) {
	j := &job{kind: kind, body: body}
	switch kind {
	case "campaign":
		spec, err := campaign.ParseSpec(body)
		if err != nil {
			return nil, err
		}
		j.name, j.spec, j.cacheKey = spec.Name, spec, cacheKeyFor(kind, spec)
	case "sim":
		req, err := htsim.ParseRequest(body)
		if err != nil {
			return nil, err
		}
		j.name = fmt.Sprintf("sim %s x%d", req.Mix, req.Threads)
		j.sim, j.cacheKey = req, cacheKeyFor(kind, simCachePayload(req))
	default:
		return nil, fmt.Errorf("unknown job kind %q", kind)
	}
	return j, nil
}

// jobStatus is the JSON view of a job.
type jobStatus struct {
	ID        string     `json:"id"`
	Kind      string     `json:"kind"`
	Name      string     `json:"name"`
	State     jobState   `json:"state"`
	Priority  string     `json:"priority,omitempty"`
	Tenant    string     `json:"tenant,omitempty"`
	CacheKey  string     `json:"cache_key"`
	Cache     string     `json:"cache,omitempty"`
	Error     string     `json:"error,omitempty"`
	Artifacts []string   `json:"artifacts,omitempty"`
	Epochs    int64      `json:"epochs"`
	Created   time.Time  `json:"created"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
}

// stateEvent is the payload of "state" SSE events.
type stateEvent struct {
	State jobState `json:"state"`
	Cache string   `json:"cache,omitempty"`
	Error string   `json:"error,omitempty"`
}

// experimentEvent is the payload of "experiment" SSE events.
type experimentEvent struct {
	ID         string `json:"id"`
	Status     string `json:"status"` // "started" | "done" | "failed"
	ConfigHash string `json:"config_hash,omitempty"`
	Error      string `json:"error,omitempty"`
}

// epochEvent is the payload of "epoch" SSE events: one typed per-epoch
// sample bridged from the pkg/htsim Observer API. VictimLevel and
// AttackerLevel are mean DVFS level indices — the victim series is the
// live throttle signal of the attack.
type epochEvent struct {
	Experiment    string  `json:"experiment"`
	Epoch         int     `json:"epoch"`
	TrojanActive  bool    `json:"trojan_active"`
	Requests      uint64  `json:"requests"`
	Tampered      uint64  `json:"tampered"`
	Grants        int     `json:"grants"`
	Flagged       uint64  `json:"flagged"`
	AttackerLevel float64 `json:"attacker_level"`
	VictimLevel   float64 `json:"victim_level"`
	Infection     float64 `json:"infection"`
}

// epochEventFor maps one streamed sample into its SSE payload.
func epochEventFor(experiment string, s core.EpochSample) epochEvent {
	return epochEvent{
		Experiment:    experiment,
		Epoch:         s.Epoch,
		TrojanActive:  s.TrojanActive,
		Requests:      s.RequestsReceived,
		Tampered:      s.RequestsTampered,
		Grants:        s.GrantsIssued,
		Flagged:       s.FlaggedRequests,
		AttackerLevel: s.AttackerMeanLevel,
		VictimLevel:   s.VictimMeanLevel,
		Infection:     s.InfectionRunning,
	}
}

// traceRoot returns the job's root span, nil with tracing disabled —
// the signal GET /v1/jobs/{id}/trace turns into its 404.
func (j *job) traceRoot() *obs.Span { return j.trace }

// status snapshots the job for JSON rendering.
func (j *job) status() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := jobStatus{
		ID:       j.id,
		Kind:     j.kind,
		Name:     j.name,
		State:    j.state,
		Tenant:   j.tenant,
		CacheKey: j.cacheKey,
		Cache:    j.cacheTier,
		Error:    j.errMsg,
		Epochs:   j.epochs.Load(),
		Created:  j.created,
	}
	if j.lane != laneNormal {
		st.Priority = laneName(j.lane)
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	st.Artifacts = j.artifactNamesLocked()
	return st
}

// artifactNamesLocked lists the job's servable artifact files; j.mu held.
func (j *job) artifactNamesLocked() []string {
	if len(j.diskFiles) > 0 {
		return append([]string(nil), j.diskFiles...)
	}
	var names []string
	for _, t := range j.tables {
		base := strings.ToLower(t.TableMeta().Experiment)
		for _, format := range results.Formats() {
			names = append(names, base+"."+format)
		}
	}
	return names
}

// begin moves a queued job to running, reporting false when the job was
// cancelled while waiting in the queue.
func (j *job) begin(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != jobQueued {
		return false
	}
	j.state = jobRunning
	j.started = time.Now()
	j.cancel = cancel
	j.events.publish("state", stateEvent{State: jobRunning})
	return true
}

// finish moves the job to a terminal state and seals its event stream.
func (j *job) finish(state jobState, tables []results.Table, diskFiles []string, cacheTier, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.finishLocked(state, tables, diskFiles, cacheTier, errMsg)
}

// finishLocked is finish with j.mu already held — the form state-machine
// transitions use when the decision and the transition must be atomic
// (cancel-while-queued racing the dispatcher's begin). The eventLog has
// its own lock and never takes j.mu, so publishing under j.mu is safe.
func (j *job) finishLocked(state jobState, tables []results.Table, diskFiles []string, cacheTier, errMsg string) {
	j.state = state
	j.tables = tables
	j.diskFiles = diskFiles
	j.cacheTier = cacheTier
	j.errMsg = errMsg
	j.finished = time.Now()
	j.cancel = nil
	// Journal the terminal transition (best-effort, nil-safe; a sealed
	// journal skips it so shutdown-swept jobs replay on the next boot).
	// The journal has its own lock and never takes j.mu, so appending
	// under j.mu is safe.
	j.journal.appendTerminal(j.jseq, string(state))
	if j.metrics != nil {
		j.metrics.observe(j.metrics.jobDuration, j.finished.Sub(j.created))
	}
	j.events.publish("state", stateEvent{State: state, Cache: cacheTier, Error: errMsg})
	j.events.close()
	// Seal the trace at the terminal transition — every path ends here
	// (normal completion, cancellation, the shutdown sweep), so a job's
	// tree never renders in_progress after its state says otherwise.
	j.trace.SetAttr("state", string(state))
	if errMsg != "" {
		j.trace.SetAttr("error", errMsg)
	}
	j.trace.End()
}

// manager owns the job table, the priority-lane queue, and the
// dispatcher.
type manager struct {
	base context.Context
	stop context.CancelFunc
	// queue holds submissions across three strict priority lanes; its
	// depth bound is the backpressure limit.
	queue *laneQueue
	// gate bounds concurrently running jobs; each admitted job fans its
	// experiments out over `workers` exp-pool workers.
	gate    *exp.Gate
	workers int
	cache   *cache
	metrics *counters
	faults  *faultinject.Set
	// coord, when non-nil, runs campaign jobs distributed across the
	// worker pool instead of in this process.
	coord *dist.Coordinator
	// tenantQuota caps queued-plus-running jobs per tenant (0 = none).
	tenantQuota int
	// journal is the write-ahead job journal (nil when --journal-dir is
	// unset; every method is nil-safe).
	journal *journal
	// closed flips once shutdown starts; ready() reports false from then
	// on.
	closed atomic.Bool
	// jobTimeout bounds each job's gate wait plus run (0 = none).
	jobTimeout time.Duration
	// sseBuffer is each SSE subscriber's channel capacity.
	sseBuffer int
	// logger receives job-lifecycle events (accepted, started, terminal)
	// with trace_id/job_id/tenant attrs; tracing gates per-job span trees
	// and the queue/gate wait histograms.
	logger  *slog.Logger
	tracing bool
	wg      sync.WaitGroup

	mu    sync.Mutex
	jobs  map[string]*job
	order []string
	seq   int
	// inflight maps cache keys to their single-flight leader (the queued
	// or running job computing that key); followers maps a leader's job ID
	// to the submissions coalesced onto it.
	inflight  map[string]*job
	followers map[string][]*job
}

// newManager starts the dispatcher and returns the manager.
func newManager(opts Options, cache *cache, metrics *counters, faults *faultinject.Set, coord *dist.Coordinator, journal *journal) *manager {
	base, stop := context.WithCancel(context.Background())
	m := &manager{
		base:        base,
		stop:        stop,
		queue:       newLaneQueue(opts.QueueDepth),
		gate:        exp.NewGate(opts.Jobs),
		workers:     opts.Workers,
		cache:       cache,
		metrics:     metrics,
		faults:      faults,
		coord:       coord,
		tenantQuota: opts.TenantQuota,
		journal:     journal,
		jobTimeout:  opts.JobTimeout,
		sseBuffer:   opts.SSEBuffer,
		logger:      opts.Logger,
		tracing:     !opts.DisableTracing,
		jobs:        make(map[string]*job),
		inflight:    make(map[string]*job),
		followers:   make(map[string][]*job),
	}
	m.wg.Add(1)
	go m.dispatch()
	return m
}

// shutdown cancels every running job, stops the dispatcher, waits for
// in-flight work to unwind, and finalises jobs still queued — every event
// log is sealed afterwards, so no SSE watcher outlives the service.
func (m *manager) shutdown() {
	m.closed.Store(true)
	// Seal before cancelling anything: the cancellations below are
	// shutdown artifacts, and sealing keeps their terminal records out of
	// the journal so the interrupted jobs replay on the next boot.
	m.journal.seal()
	m.stop()
	m.wg.Wait()
	m.mu.Lock()
	jobs := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	m.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		switch j.state {
		case jobQueued, jobRunning:
			j.finishLocked(jobCancelled, nil, nil, "", "server shutting down")
			j.mu.Unlock()
			m.metrics.inc(jobsCancelled)
		default:
			j.mu.Unlock()
		}
	}
}

// lookup returns a job by ID, or nil.
func (m *manager) lookup(id string) *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.jobs[id]
}

// list snapshots every job in submission order.
func (m *manager) list() []jobStatus {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	out := make([]jobStatus, 0, len(ids))
	for _, id := range ids {
		if j := m.lookup(id); j != nil {
			out = append(out, j.status())
		}
	}
	return out
}

// ready reports whether the service can accept new work: the queue has
// room and the manager is not shutting down. /v1/healthz maps it to the
// live-vs-ready distinction — a saturated service is alive but degraded.
func (m *manager) ready() bool {
	if m.closed.Load() {
		return false
	}
	return m.queue.len() < m.queue.capacity()
}

// retryAfterSeconds advises a shed client how long to back off before
// resubmitting: proportional to the backlog, capped so the hint stays
// honest under deep queues.
func (m *manager) retryAfterSeconds() int {
	s := 1 + m.queue.len()
	if s > 30 {
		s = 30
	}
	return s
}

// sampleGauges fills the job table's gauges for /v1/metrics: queued and
// running jobs, and live SSE subscribers summed across every job.
func (m *manager) sampleGauges(g *gauges) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.jobs {
		j.mu.Lock()
		switch j.state {
		case jobQueued:
			g.queued++
		case jobRunning:
			g.running++
		}
		j.mu.Unlock()
		g.subscribers += j.events.subscribers()
	}
}

// submit registers a job, answers it from the content-addressed cache or
// coalesces it onto an identical in-flight job when possible, and
// otherwise enqueues it FIFO. A full queue returns errQueueFull (the job
// is not registered).
func (m *manager) submit(j *job) error {
	j.created = time.Now()
	j.state = jobQueued
	j.metrics = m.metrics
	j.journal = m.journal
	j.events = newEventLog(m.sseBuffer, &m.metrics.sseDropped)
	if m.tracing {
		// Root the job's trace at admission; finishLocked seals it at the
		// terminal transition. The span lives on the job, not a context —
		// the job outlives this call stack.
		_, root := obs.StartTrace(m.base, "job")
		root.SetAttr("kind", j.kind)
		root.SetAttr("lane", laneName(j.lane))
		if j.tenant != "" {
			root.SetAttr("tenant", j.tenant)
		}
		j.trace = root
	}

	// The queue.admit fault point models a failing admission path (a
	// broken queue backend, an overloaded admission controller): error
	// mode rejects this one submission, latency mode delays it, panic
	// mode is contained by the handler-level recovery. Journal replay
	// skips it — the job already passed admission once.
	if !j.replay {
		if err := m.faults.Fire(m.base, "queue.admit"); err != nil {
			m.metrics.inc(jobsRejected)
			m.logger.Warn("job admission fault rejected submission",
				"fault_point", "queue.admit", "kind", j.kind, "tenant", j.tenant, "error", err)
			return fmt.Errorf("server: admission failed: %w", err)
		}
	}

	// Durability before acknowledgement: the accept record is fsync'd
	// before any path that can answer 202. A failed append rejects the
	// submission — a job the journal cannot hold would be silently lost
	// by a crash. Paths below that shed the job instead (full queue,
	// tenant quota) append a synthetic "rejected" terminal so the 429'd
	// job never resurrects at boot.
	jspan := j.trace.StartChild("journal.append")
	if err := m.journal.appendAccept(j); err != nil {
		m.metrics.inc(jobsRejected)
		m.logger.Error("journal append failed; submission rejected", "kind", j.kind, "error", err)
		return fmt.Errorf("server: %w", err)
	}
	jspan.End()

	// Cache tiers are consulted before the queue: an identical submission
	// returns instantly, without occupying a queue slot or a worker.
	cspan := j.trace.StartChild("cache.lookup")
	if tables, ok := m.cache.mem.Get(j.cacheKey); ok {
		cspan.SetAttr("tier", "memory")
		cspan.End()
		m.register(j)
		m.accept(j, cacheHits, "memory")
		j.finish(jobDone, tables, nil, "memory", "")
		return nil
	}
	if files, ok := m.cache.disk.Get(j.cacheKey); ok {
		cspan.SetAttr("tier", "disk")
		cspan.End()
		m.register(j)
		m.accept(j, cacheDiskHits, "disk")
		j.finish(jobDone, nil, files, "disk", "")
		return nil
	}
	cspan.SetAttr("tier", "miss")
	cspan.End()

	m.mu.Lock()
	// Single-flight: an identical payload already queued or running makes
	// this submission a follower — it waits for the leader's result
	// instead of taking a queue slot and re-simulating the same work
	// (stampede protection for cache misses). Followers ride their
	// leader's capacity, so tenant quotas don't apply to them.
	if leader := m.inflight[j.cacheKey]; leader != nil {
		m.registerLocked(j)
		m.accept(j, singleFlight, "single-flight")
		j.trace.SetAttr("single_flight_leader", leader.id)
		m.followers[leader.id] = append(m.followers[leader.id], j)
		m.mu.Unlock()
		return nil
	}
	// Per-tenant quota: a tenant at its cap of queued-plus-running jobs
	// sheds, counted per tenant. Checked under the registration lock,
	// like the depth bound, so a burst cannot overshoot. Replayed jobs
	// are exempt — the quota applied at their original admission.
	if !j.replay && m.tenantQuota > 0 && j.tenant != "" && m.tenantActiveLocked(j.tenant) >= m.tenantQuota {
		m.mu.Unlock()
		m.metrics.incTenantShed(j.tenant)
		m.journal.appendTerminal(j.jseq, stateRejected)
		m.logger.Warn("job rejected: tenant quota exceeded", "kind", j.kind, "tenant", j.tenant, "quota", m.tenantQuota)
		return fmt.Errorf("%w: tenant %q has %d jobs active", errTenantQuota, j.tenant, m.tenantQuota)
	}
	// The queue-full check happens under the registration lock so a burst
	// of submissions cannot overshoot the declared depth, and before the
	// job is registered, so a shed job consumes no ID. Every push happens
	// under m.mu and pops only shrink the queue, so the push below cannot
	// fail. Replay pushes past the bound: every replayed job held a queue
	// slot when it was first accepted, and boot-time replay happens before
	// the listener opens, so nothing else is competing for depth yet.
	if !j.replay && m.queue.len() >= m.queue.capacity() {
		m.mu.Unlock()
		m.metrics.inc(jobsRejected)
		m.journal.appendTerminal(j.jseq, stateRejected)
		m.logger.Warn("job rejected: queue full", "kind", j.kind, "tenant", j.tenant)
		return errQueueFull
	}
	j.queueSpan = j.trace.StartChild("queue.wait")
	m.registerLocked(j)
	m.inflight[j.cacheKey] = j
	m.accept(j, cacheMisses, "")
	if j.replay {
		m.queue.pushReplay(j)
	} else {
		m.queue.push(j)
	}
	m.mu.Unlock()
	return nil
}

// accept counts, logs and announces one registered submission, which
// the tier counter answers. It runs before anything can finish the job —
// the push or the follower append makes it visible to the dispatcher or
// to settle — so no scrape, log or event stream sees the job end before
// it was submitted.
func (m *manager) accept(j *job, tier counter, cache string) {
	m.metrics.inc(jobsSubmitted, tier)
	m.logJobAccepted(j, cache)
	j.events.publish("state", stateEvent{State: jobQueued})
}

// logJobAccepted records one admission at Info with the attrs every
// job-lifecycle line carries; cache names the tier that answered
// without simulation ("" = queued for execution).
func (m *manager) logJobAccepted(j *job, cache string) {
	attrs := []any{"job_id", j.id, "kind", j.kind, "name", j.name}
	if tid := j.trace.TraceID(); tid != "" {
		attrs = append(attrs, "trace_id", tid)
	}
	if j.tenant != "" {
		attrs = append(attrs, "tenant", j.tenant)
	}
	if cache != "" {
		attrs = append(attrs, "cache", cache)
	}
	m.logger.Info("job accepted", attrs...)
}

// tenantActiveLocked counts a tenant's queued and running jobs; m.mu
// held. Job states are read under each job's own lock, the same nesting
// sampleGauges uses.
func (m *manager) tenantActiveLocked(tenant string) int {
	n := 0
	for _, j := range m.jobs {
		if j.tenant != tenant {
			continue
		}
		j.mu.Lock()
		switch j.state {
		case jobQueued, jobRunning:
			n++
		}
		j.mu.Unlock()
	}
	return n
}

// settle finalises a leader's single-flight followers with the leader's
// outcome and clears the in-flight entry. Call it after the leader
// reaches any terminal state. A done leader completes its followers with
// the same tables (cache tier "single-flight"); a failed leader fails
// them with the same error (the simulation is deterministic — the same
// payload on the same build fails identically); a cancelled leader fails
// them with a resubmittable explanation. Followers already finalised
// (cancelled individually, or swept by shutdown) are left untouched.
func (m *manager) settle(leader *job) {
	m.mu.Lock()
	if m.inflight[leader.cacheKey] == leader {
		delete(m.inflight, leader.cacheKey)
	}
	fs := m.followers[leader.id]
	delete(m.followers, leader.id)
	m.mu.Unlock()
	if len(fs) == 0 {
		return
	}
	leader.mu.Lock()
	state, tables, diskFiles, errMsg := leader.state, leader.tables, leader.diskFiles, leader.errMsg
	leader.mu.Unlock()
	for _, f := range fs {
		f.mu.Lock()
		if f.state != jobQueued {
			f.mu.Unlock()
			continue
		}
		switch state {
		case jobDone:
			f.finishLocked(jobDone, tables, diskFiles, "single-flight", "")
			f.mu.Unlock()
			m.metrics.inc(jobsDone)
		default:
			f.finishLocked(jobFailed, nil, nil, "",
				fmt.Sprintf("coalesced onto job %s which was %s: %s", leader.id, state, errMsg))
			f.mu.Unlock()
			m.metrics.inc(jobsFailed)
		}
	}
}

// register assigns the next job ID and records the job.
func (m *manager) register(j *job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.registerLocked(j)
}

// registerLocked is register with m.mu already held.
func (m *manager) registerLocked(j *job) {
	m.seq++
	j.id = fmt.Sprintf("job-%06d", m.seq)
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	j.trace.SetAttr("job_id", j.id)
}

// dispatch pops jobs FIFO and starts each one once the gate admits it, so
// job start order matches submission order even with several job slots.
// With a job timeout configured, the gate wait is bounded by it: a job
// that cannot get a slot inside its whole deadline budget is failed and
// the dispatcher moves on — saturation sheds work, it never wedges the
// queue.
func (m *manager) dispatch() {
	defer m.wg.Done()
	for {
		j := m.queue.pop(m.base)
		if j == nil {
			return
		}
		// A popped job is the dispatcher's alone (cancelJob can no longer
		// remove it), so ending the queue.wait span here is race-free; its
		// duration feeds the queue-vs-run latency attribution histogram.
		if j.queueSpan != nil {
			j.queueSpan.End()
			m.metrics.observe(m.metrics.queueWait, j.queueSpan.Duration())
		}
		gspan := j.trace.StartChild("gate.wait")
		err := m.gate.AcquireWithin(m.base, m.jobTimeout)
		gspan.RecordError(err)
		gspan.End()
		if gspan != nil {
			m.metrics.observe(m.metrics.gateWait, gspan.Duration())
		}
		if err != nil {
			if errors.Is(err, exp.ErrAcquireTimeout) {
				m.timeOutQueued(j)
				continue
			}
			return
		}
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			defer m.gate.Release()
			m.run(j)
		}()
	}
}

// timeOutQueued fails a job whose deadline elapsed while it waited for a
// job slot (skipping it silently if it was cancelled in the meantime).
func (m *manager) timeOutQueued(j *job) {
	j.mu.Lock()
	if j.state == jobQueued {
		j.finishLocked(jobFailed, nil, nil, "", fmt.Sprintf("job timed out after %v waiting for a job slot", m.jobTimeout))
		j.mu.Unlock()
		m.metrics.inc(jobsFailed, jobsTimedOut)
		m.logger.Warn("job timed out waiting for a job slot", "job_id", j.id, "timeout", m.jobTimeout.String())
	} else {
		j.mu.Unlock()
	}
	m.settle(j)
}

// run executes one job under its own cancellable (and, with
// --job-timeout, deadlined) context, contains any panic the simulation
// raises, and finalises the job's state, cache entry, metrics, and
// single-flight followers. One misbehaving job — however it dies — costs
// exactly that job.
func (m *manager) run(j *job) {
	defer m.settle(j)
	var ctx context.Context
	var cancel context.CancelFunc
	if m.jobTimeout > 0 {
		// The deadline budget started when the job left the queue (the
		// bounded gate wait); what remains bounds the run itself.
		ctx, cancel = context.WithTimeout(m.base, m.jobTimeout)
	} else {
		ctx, cancel = context.WithCancel(m.base)
	}
	defer cancel()
	if !j.begin(cancel) {
		// Cancelled while queued; cancelJob already finalised it.
		return
	}
	m.metrics.inc(jobsStarted)
	m.logger.Info("job started", "job_id", j.id, "kind", j.kind, "trace_id", j.trace.TraceID())

	// The run span covers the simulation itself — everything between the
	// gate admitting the job and its terminal transition. Threading it
	// through the context is what roots the experiment/shard/dispatch
	// spans the campaign and dist layers open below.
	rspan := j.trace.StartChild("run")
	runStart := time.Now()
	tables, err := m.execute(obs.ContextWithSpan(ctx, rspan), j)
	rspan.RecordError(err)
	rspan.End()

	if err != nil {
		m.logger.Warn("job failed", "job_id", j.id, "trace_id", j.trace.TraceID(), "error", err)
	} else {
		m.logger.Info("job done", "job_id", j.id, "trace_id", j.trace.TraceID(),
			"duration", time.Since(runStart).Round(time.Millisecond).String())
	}

	switch {
	case err != nil && errors.Is(ctx.Err(), context.DeadlineExceeded):
		m.metrics.inc(jobsFailed, jobsTimedOut)
		j.finish(jobFailed, nil, nil, "", fmt.Sprintf("job deadline (%v) exceeded: %s", m.jobTimeout, err))
	case err != nil && (ctx.Err() != nil || errors.Is(err, context.Canceled)):
		m.metrics.inc(jobsCancelled)
		j.finish(jobCancelled, nil, nil, "", err.Error())
	case err != nil:
		m.metrics.inc(jobsFailed)
		j.finish(jobFailed, nil, nil, "", err.Error())
	default:
		if cerr := m.cache.put(j.cacheKey, tables); cerr != nil {
			// A failed disk spill degrades the cache, not the job: the
			// result is still served from memory.
			j.events.publish("experiment", experimentEvent{ID: "cache", Status: "failed", Error: cerr.Error()})
		}
		m.metrics.inc(jobsDone)
		j.finish(jobDone, tables, nil, "", "")
	}
}

// execute runs the job's simulation behind the per-job recover barrier:
// a panic anywhere in the campaign or sim path (including one injected
// at the job.run fault point) becomes this job's structured error — the
// goroutine survives, the dispatcher never notices, and the panic is
// counted in panics_recovered.
func (m *manager) execute(ctx context.Context, j *job) (tables []results.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			m.metrics.inc(panicsRecovered)
			tables = nil
			err = fmt.Errorf("panic in job %s: %v\n%s", j.id, r, firstStackLines(debug.Stack(), 8))
		}
	}()
	if err := m.faults.Fire(ctx, "job.run"); err != nil {
		m.logger.Warn("job execution fault injected", "fault_point", "job.run", "job_id", j.id, "error", err)
		return nil, err
	}

	epoch := func(experiment string, s core.EpochSample) {
		j.epochs.Add(1)
		m.metrics.epochs.Add(1)
		j.events.publish("epoch", epochEventFor(experiment, s))
	}

	switch j.kind {
	case "campaign":
		prog := campaign.Progress{
			ExperimentStarted: func(id string) {
				j.events.publish("experiment", experimentEvent{ID: id, Status: "started"})
			},
			ExperimentDone: func(id string, t results.Table, terr error) {
				ev := experimentEvent{ID: id, Status: "done"}
				if terr != nil {
					ev.Status = "failed"
					ev.Error = terr.Error()
				} else if t != nil {
					ev.ConfigHash = t.TableMeta().ConfigHash
				}
				j.events.publish("experiment", ev)
			},
			Epoch: epoch,
		}
		if m.coord != nil {
			// Coordinator mode: the campaign is sharded across the worker
			// pool. Epoch samples stream back live over each shard's NDJSON
			// response and arrive here through prog.Epoch (deduplicated
			// across retries and hedges by the coordinator), so distributed
			// jobs publish the same SSE epoch events local ones do.
			return m.coord.RunCampaign(ctx, j.spec, prog)
		}
		return campaign.BuildTables(ctx, j.spec, m.workers, prog)
	default:
		t, err := runSim(ctx, j.sim, m.workers, func(s core.EpochSample) { epoch("run", s) })
		if err != nil {
			return nil, err
		}
		return []results.Table{t}, nil
	}
}

// firstStackLines trims a debug.Stack dump to its first n lines — enough
// to locate the panic in a structured error without a wall of text.
func firstStackLines(stack []byte, n int) string {
	lines := strings.SplitN(string(stack), "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}

// cancelJob cancels a queued or running job. It reports whether the job
// exists and an error when the job already finished.
func (m *manager) cancelJob(id string) (found bool, err error) {
	j := m.lookup(id)
	if j == nil {
		return false, nil
	}
	j.mu.Lock()
	switch j.state {
	case jobQueued:
		// Free the queue slot now, not when the dispatcher pops the dead
		// job: admission, readiness and Retry-After all count it. Only
		// whoever takes the job off the queue ends its queue.wait span.
		if m.queue.remove(j) {
			j.queueSpan.End()
		}
		// The transition happens inside the same critical section begin()
		// checks, so the dispatcher can never start a job whose DELETE was
		// acknowledged.
		j.finishLocked(jobCancelled, nil, nil, "", "cancelled while queued")
		j.mu.Unlock()
		m.metrics.inc(jobsCancelled)
		// The job may have been a single-flight leader (followers fail
		// with a resubmittable error) or a follower (settle on itself is a
		// no-op; its leader's settle skips it, already terminal).
		m.settle(j)
		return true, nil
	case jobRunning:
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			// run() observes the cancellation and finalises the job.
			cancel()
		}
		return true, nil
	default:
		state := j.state
		j.mu.Unlock()
		return true, fmt.Errorf("job already %s", state)
	}
}

// cacheKeyFor fingerprints a submission for the content-addressed cache:
// the request payload plus the binary's build (VCS revision, Go toolchain
// and GOARCH), so results simulated by a different build never alias —
// not even through a cache directory two builds share.
func cacheKeyFor(kind string, payload any) string {
	return cacheKey(kind, payload, results.ThisBuild())
}

// cacheKey is cacheKeyFor for the given build.
func cacheKey(kind string, payload any, b results.Build) string {
	return results.HashConfig(struct {
		Kind    string        `json:"kind"`
		Payload any           `json:"payload"`
		Build   results.Build `json:"build"`
	}{kind, payload, b})
}

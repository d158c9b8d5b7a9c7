// Package dist is the coordinator side of distributed campaign
// execution: it shards one campaign's cell spaces across many htserved
// workers over HTTP and merges the shard results into exactly the tables
// a single-process run produces — byte-identical for any worker count,
// any shard partition, and any interleaving of failures and retries.
//
// The protocol is deliberately small. The coordinator plans shards with
// campaign.PlanShards, POSTs each one to a worker's /v1/shards endpoint
// as a ShardRequest (the shard plus the coordinator's results.Build
// fingerprint — workers reject a mismatched revision, toolchain or
// GOARCH, because byte identity across machines requires homogeneous
// builds), and reassembles the replies with campaign.MergeShards. Every
// shard's payload is a JSON array of cells of its experiment's one cell
// type (see internal/campaign/shard.go); the coordinator never aggregates
// floats itself, so reassembly is exact. Shards with one
// campaign.Shard.Key — E7 and E8 share the Fig 5/6 sweep — dispatch once
// per campaign.
//
// Failures redispatch: a shard whose worker is unreachable, times out,
// answers with an error, or answers with a result that fails
// campaign.ShardResult.Check (another shard, or the wrong number of
// cells) is retried on the next worker round-robin, up to
// Options.Retries extra attempts. Only checked results land in a small
// content-addressed cache keyed by Shard.Key, so re-running a campaign
// with one changed experiment recomputes only that experiment's shards.
// Worker choice derives from exp.ShardSeed — a shard-local substream of
// the campaign seed — keeping dispatch deterministic without ever
// touching trial streams.
//
// The durability layer extends this in three directions (DESIGN.md
// §12). Completed shard results spill to a disk checkpoint store
// (Options.CheckpointDir) with sha256 manifests and quarantine-on-
// corruption, so a coordinator restarted mid-campaign recomputes only
// shards that never finished. Each worker carries a circuit breaker:
// consecutive dispatch failures open it for a deterministic full-jitter
// backoff window (seeded per worker via exp.StreamSeed), after which
// one half-open probe either closes it or doubles the window — a dead
// worker costs a bounded number of attempts, not one per shard.
// Straggling dispatches hedge: after Options.HedgeDelay (or an
// adaptive p99 of observed dispatch latency) without an answer, the
// shard is speculatively redispatched to a second worker and the first
// byte-complete result wins; the loser is audited byte-for-byte
// against the winner (Stats.HedgeMismatches), because shard execution is
// deterministic per build and any divergence is a bug worth counting.
// The coordinator counts these shard events itself; Stats snapshots them.
//
// Chaos coverage reuses internal/faultinject: the dist.dispatch point
// fires before every dispatch attempt (an injected error is a failed
// attempt and redispatches like a real one), dist.merge before the
// final merge, and shard.checkpoint.read / shard.checkpoint.write
// around the checkpoint store (an injected read degrades to a recompute,
// an injected write skips the checkpoint — never fails the shard).
package dist

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/faultinject"
	"repro/internal/histo"
	"repro/internal/obs"
	"repro/internal/results"
	"repro/internal/store"
)

// ShardPath is the worker endpoint shards are POSTed to.
const ShardPath = "/v1/shards"

// NDJSONContentType marks a shard response: newline-delimited
// StreamFrame objects.
const NDJSONContentType = "application/x-ndjson"

// ShardRequest is the wire form of one shard dispatch. The embedded Build
// fingerprints the coordinator (its fields keep the wire names revision,
// go and arch); a worker on a different build must reject the shard
// rather than contribute bytes from a divergent simulator. Traceparent,
// when set, names the coordinator's dispatch span so the worker's spans
// stitch into the same trace. The worker answers with an NDJSON stream of
// StreamFrames.
type ShardRequest struct {
	results.Build
	Shard       campaign.Shard `json:"shard"`
	Traceparent string         `json:"traceparent,omitempty"`
}

// EpochFrame is one per-epoch Observer sample a worker relays back
// mid-shard: the shard-local sequence number (1-based, deterministic
// per shard content), the experiment that produced it, and the sample.
type EpochFrame struct {
	Seq        int64            `json:"seq"`
	Experiment string           `json:"experiment"`
	Sample     core.EpochSample `json:"sample"`
}

// StreamFrame is one NDJSON line of a streamed shard response. Epoch
// frames arrive while the shard runs; exactly one terminal frame
// follows — Result (with the worker's exported span subtree in Trace)
// on success, Error on failure. The trace rides beside the result, not
// inside it: ShardResult stays byte-pure because the hedge audit and
// the checkpoint store compare and hash its serialized form.
type StreamFrame struct {
	Epoch  *EpochFrame           `json:"epoch,omitempty"`
	Result *campaign.ShardResult `json:"result,omitempty"`
	Trace  *obs.Node             `json:"trace,omitempty"`
	Error  string                `json:"error,omitempty"`
}

// Stats is a snapshot of the shard events a coordinator has counted
// since New.
type Stats struct {
	// Dispatched counts dispatch attempts by worker URL.
	Dispatched map[string]int64
	// Retries counts redispatches (attempt two onward); CacheHits shards
	// served from the shard cache; Checkpointed completed shard results
	// spilled to the checkpoint store; Resumed shards answered from it
	// instead of recomputed; Hedges straggling dispatches speculatively
	// redispatched to a second worker; BreakerOpens worker breaker
	// closed→open transitions, a failed half-open probe included;
	// HedgeMismatches hedged dispatches whose two results were not
	// byte-identical — zero unless shard determinism is broken.
	Retries, CacheHits, Checkpointed, Resumed, Hedges, BreakerOpens, HedgeMismatches int64
	// RTT observes each successful dispatch's round trip in seconds; its
	// p99 drives adaptive hedging.
	RTT *histo.Histogram
}

// Options configure a Coordinator.
type Options struct {
	// Workers seeds the worker pool with static base URLs
	// (e.g. http://10.0.0.2:8080). More workers can join at runtime via
	// Register (the server's POST /v1/workers registration endpoint).
	Workers []string
	// MaxShards bounds how many shards one experiment's trial space is
	// split into (default: twice the seed pool size, at least 2).
	MaxShards int
	// Retries is how many extra dispatch attempts a failed shard gets,
	// each on the next worker round-robin (default 2; negative disables
	// redispatch).
	Retries int
	// ShardTimeout bounds one dispatch attempt end-to-end (default 5m;
	// negative disables). A hung worker costs one attempt, not the
	// campaign.
	ShardTimeout time.Duration
	// Client is the HTTP client for dispatches and probes (default: a
	// plain http.Client; per-attempt deadlines come from ShardTimeout).
	Client *http.Client
	// CheckpointDir, when non-empty, spills completed shard results to a
	// disk checkpoint store (sha256-manifested, quarantined when
	// corrupt) that survives coordinator restarts: a resumed campaign
	// recomputes only shards that never completed.
	CheckpointDir string
	// Seed keys the deterministic per-worker backoff jitter streams (via
	// exp.StreamSeed), so breaker tests reproduce exactly (default 1).
	Seed int64
	// BreakerFailures is the consecutive-failure threshold that opens a
	// worker's circuit breaker (default 3; negative disables breakers).
	BreakerFailures int
	// HedgeDelay tunes straggler hedging: after this long without an
	// answer a shard is redispatched to a second worker and the first
	// byte-complete result wins. 0 derives the delay from the observed
	// dispatch p99; negative disables hedging.
	HedgeDelay time.Duration
	// PoolWait bounds how long a shard waits for the worker pool to be
	// non-empty before failing (default 60s; negative fails
	// immediately). A restarted coordinator replays journaled campaigns
	// before its workers' next heartbeat re-registers them; this turns
	// that boot-order race into a short wait.
	PoolWait time.Duration
	// Faults arms the dist.dispatch / dist.merge / shard.checkpoint.*
	// chaos points.
	Faults *faultinject.Set
	// Logger receives structured dispatch-lifecycle events (retries,
	// hedges, breaker opens, audit mismatches) with shard/worker attrs;
	// nil discards them.
	Logger *slog.Logger
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.MaxShards < 1 {
		o.MaxShards = 2 * len(o.Workers)
		if o.MaxShards < 2 {
			o.MaxShards = 2
		}
	}
	if o.Retries == 0 {
		o.Retries = 2
	} else if o.Retries < 0 {
		o.Retries = 0
	}
	if o.ShardTimeout == 0 {
		o.ShardTimeout = 5 * time.Minute
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.BreakerFailures == 0 {
		o.BreakerFailures = 3
	} else if o.BreakerFailures < 0 {
		o.BreakerFailures = 0
	}
	if o.PoolWait == 0 {
		o.PoolWait = time.Minute
	} else if o.PoolWait < 0 {
		o.PoolWait = 0
	}
	if o.Logger == nil {
		o.Logger = obs.Discard()
	}
	return o
}

// WorkerStatus reports one pool member's reachability.
type WorkerStatus struct {
	URL       string `json:"url"`
	Reachable bool   `json:"reachable"`
}

// PoolHealth summarises a reachability sweep of the worker pool.
type PoolHealth struct {
	Total     int `json:"total"`
	Reachable int `json:"reachable"`
	// Quorum is the minimum reachable workers for the coordinator to
	// call itself ready: a strict majority of the registered pool, and
	// never less than one — a coordinator with no reachable workers
	// cannot run campaigns at all.
	Quorum  int            `json:"quorum"`
	Workers []WorkerStatus `json:"workers"`
}

// Ready reports whether the pool meets quorum.
func (h PoolHealth) Ready() bool { return h.Reachable >= h.Quorum }

// workerState is one pool member: its stable id (content-derived from
// the URL, so re-registration is naturally idempotent) plus its circuit
// breaker. Breaker fields are guarded by the Coordinator's mutex; the
// jitter rng is per-worker and seeded from a worker-keyed substream, so
// backoff schedules are deterministic in tests yet decorrelated across
// workers.
type workerState struct {
	id  string
	url string
	// fails counts consecutive dispatch failures since the last success.
	fails int
	// openUntil is the breaker deadline: zero means closed; a passed
	// deadline means half-open (one probe dispatch is allowed through).
	openUntil time.Time
	// backoff is the next open window, doubling to breakerMaxBackoff.
	backoff time.Duration
	rng     *rand.Rand
}

// Coordinator shards campaigns across a pool of htserved workers.
// Construct with New; safe for concurrent use.
type Coordinator struct {
	opts Options

	mu      sync.Mutex
	workers []*workerState
	stats   Stats

	// cache memoizes completed shard results by content address; ckpt
	// (nil without a checkpoint directory) is its disk tier.
	cache *store.LRU[campaign.ShardResult]
	ckpt  *store.Dir
}

// shardCacheEntries sizes the coordinator's shard-result cache.
const shardCacheEntries = 512

// New builds a Coordinator over the given options, creating the
// checkpoint directory when configured.
func New(opts Options) (*Coordinator, error) {
	opts = opts.withDefaults()
	ckpt, err := openCheckpoints(opts.CheckpointDir, opts.Faults)
	if err != nil {
		return nil, fmt.Errorf("dist: checkpoint dir: %w", err)
	}
	c := &Coordinator{
		opts:  opts,
		cache: store.NewLRU[campaign.ShardResult](shardCacheEntries),
		ckpt:  ckpt,
		stats: Stats{Dispatched: map[string]int64{}, RTT: histo.Exponential(0.001, 2, 18)},
	}
	for _, u := range opts.Workers {
		c.Register(u)
	}
	return c, nil
}

// Stats snapshots the shard-event counts; the map and the histogram are
// copies the caller owns.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Dispatched = maps.Clone(s.Dispatched)
	s.RTT = s.RTT.Clone()
	return s
}

// count bumps one shard-event count under the coordinator's mutex.
func (c *Coordinator) count(n *int64) {
	c.mu.Lock()
	*n++
	c.mu.Unlock()
}

// workerID derives a worker's stable pool id from its normalised URL —
// the {id} the DELETE /v1/workers/{id} deregistration path names.
func workerID(url string) string {
	h := sha256.Sum256([]byte(url))
	return hex.EncodeToString(h[:8])
}

// Register adds a worker base URL to the pool, reporting its stable id
// and whether it was new. Registration is idempotent (heartbeats
// re-register on a cadence), and re-registering never resets breaker
// state: health is earned by dispatch outcomes, not by announcements.
// URLs are normalised (trailing slash stripped).
func (c *Coordinator) Register(url string) (string, bool) {
	url = strings.TrimRight(strings.TrimSpace(url), "/")
	if url == "" {
		return "", false
	}
	id := workerID(url)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		if w.url == url {
			return id, false
		}
	}
	c.workers = append(c.workers, &workerState{
		id:      id,
		url:     url,
		backoff: breakerBaseBackoff,
		rng:     rand.New(rand.NewSource(exp.StreamSeed(c.opts.Seed, "breaker/"+url))),
	})
	return id, true
}

// Remove deregisters the worker with the given pool id — the graceful-
// drain path: a SIGTERMed worker finishes its in-flight shards, then
// deregisters so the coordinator stops placing new ones on it.
func (c *Coordinator) Remove(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, w := range c.workers {
		if w.id == id {
			c.workers = append(c.workers[:i], c.workers[i+1:]...)
			return true
		}
	}
	return false
}

// WorkerURLs snapshots the pool in registration order.
func (c *Coordinator) WorkerURLs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	urls := make([]string, len(c.workers))
	for i, w := range c.workers {
		urls[i] = w.url
	}
	return urls
}

// Health probes every pool member's liveness endpoint concurrently
// (bounded to probeTimeout each) and reports the quorum verdict the
// coordinator's /v1/healthz readiness folds in.
func (c *Coordinator) Health(ctx context.Context) PoolHealth {
	urls := c.WorkerURLs()
	h := PoolHealth{Total: len(urls), Quorum: quorum(len(urls)), Workers: make([]WorkerStatus, len(urls))}
	var wg sync.WaitGroup
	for i, u := range urls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.Workers[i] = WorkerStatus{URL: u, Reachable: c.probe(ctx, u)}
		}()
	}
	wg.Wait()
	for _, w := range h.Workers {
		if w.Reachable {
			h.Reachable++
		}
	}
	return h
}

// probeTimeout bounds one worker liveness probe.
const probeTimeout = 2 * time.Second

// probe checks one worker's liveness endpoint.
func (c *Coordinator) probe(ctx context.Context, workerURL string) bool {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, workerURL+"/v1/healthz?probe=live", nil)
	if err != nil {
		return false
	}
	resp, err := c.opts.Client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// quorum is the readiness threshold for n registered workers: a strict
// majority, at least one. Zero registered workers can never be ready.
func quorum(n int) int {
	if n == 0 {
		return 1
	}
	return n/2 + 1
}

// Circuit-breaker backoff window: full jitter over a doubling range.
const (
	breakerBaseBackoff = 250 * time.Millisecond
	breakerMaxBackoff  = 15 * time.Second
)

// eligibleWorkers snapshots the pool members whose breaker admits a
// dispatch now: closed breakers, plus open ones whose window has passed
// (the half-open probe). When every breaker is open the whole pool is
// returned — with no healthier alternative, failing fast helps nobody.
func (c *Coordinator) eligibleWorkers(now time.Time) []*workerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ws []*workerState
	for _, w := range c.workers {
		if w.openUntil.IsZero() || now.After(w.openUntil) {
			ws = append(ws, w)
		}
	}
	if len(ws) == 0 {
		ws = append(ws, c.workers...)
	}
	return ws
}

// recordSuccess closes w's breaker and feeds the dispatch latency into
// the adaptive-hedging histogram.
func (c *Coordinator) recordSuccess(w *workerState, d time.Duration) {
	c.mu.Lock()
	w.fails = 0
	w.backoff = breakerBaseBackoff
	w.openUntil = time.Time{}
	c.stats.RTT.Observe(d.Seconds())
	c.mu.Unlock()
}

// recordFailure counts one failed dispatch against w's breaker. The
// breaker opens at the consecutive-failure threshold — or immediately
// when the failure was a half-open probe — for a full-jitter window
// drawn from the worker's deterministic rng, doubling to the cap.
func (c *Coordinator) recordFailure(w *workerState) {
	if c.opts.BreakerFailures <= 0 {
		return
	}
	var opened bool
	var openFor time.Duration
	c.mu.Lock()
	w.fails++
	if w.fails >= c.opts.BreakerFailures || !w.openUntil.IsZero() {
		wait := time.Duration(w.rng.Int63n(int64(w.backoff))) + time.Millisecond
		w.openUntil = time.Now().Add(wait)
		w.backoff *= 2
		if w.backoff > breakerMaxBackoff {
			w.backoff = breakerMaxBackoff
		}
		w.fails = 0
		c.stats.BreakerOpens++
		opened = true
		openFor = wait
	}
	c.mu.Unlock()
	if opened {
		c.opts.Logger.Warn("worker circuit breaker opened", "worker", w.url, "open_for", openFor)
	}
}

// awaitWorkers blocks (polling) until the pool is non-empty, up to
// Options.PoolWait. A coordinator restarted mid-campaign replays its
// journaled jobs before its workers' next heartbeat re-registers them;
// waiting here turns that boot-order race into a short delay instead of
// a failed campaign.
func (c *Coordinator) awaitWorkers(ctx context.Context) error {
	deadline := time.Now().Add(c.opts.PoolWait)
	for {
		c.mu.Lock()
		n := len(c.workers)
		c.mu.Unlock()
		if n > 0 {
			return nil
		}
		if c.opts.PoolWait <= 0 || time.Now().After(deadline) {
			return errors.New("dist: no workers registered")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// hedgeMinObservations is how many successful dispatches the latency
// histogram needs before an adaptive p99 means anything.
const hedgeMinObservations = 8

// hedgeDelay resolves the straggler-hedging delay for one dispatch: a
// positive Options.HedgeDelay verbatim, negative disables (0 returned),
// and zero adapts — the p99 of observed dispatch latency, once enough
// dispatches have been seen.
func (c *Coordinator) hedgeDelay() time.Duration {
	if c.opts.HedgeDelay != 0 {
		if c.opts.HedgeDelay < 0 {
			return 0
		}
		return c.opts.HedgeDelay
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stats.RTT.Count() < hedgeMinObservations {
		return 0
	}
	return time.Duration(c.stats.RTT.Quantile(0.99) * float64(time.Second))
}

// RunCampaign shards a validated spec across the pool, redispatching
// failed shards, and merges the results into the exact tables
// campaign.BuildTables produces locally. Each distinct shard key runs
// once per campaign and answers every shard that shares it. prog receives
// the same experiment-lifecycle callbacks a local run reports (started on
// first shard dispatch, done after the merge) and — when prog.Epoch is
// set — the same live per-epoch samples: workers stream them back over
// the shard response and a per-campaign sink republishes each sequence
// number exactly once, however many retries or hedge twins replay it.
func (c *Coordinator) RunCampaign(ctx context.Context, spec *campaign.Spec, prog campaign.Progress) ([]results.Table, error) {
	shards, err := campaign.PlanShards(spec, c.opts.MaxShards)
	if err != nil {
		return nil, err
	}
	sink := newProgressSink(prog)
	var startedMu sync.Mutex
	started := make(map[int]bool)
	markStarted := func(sh campaign.Shard) {
		if prog.ExperimentStarted == nil {
			return
		}
		startedMu.Lock()
		first := !started[sh.ExpIndex]
		started[sh.ExpIndex] = true
		startedMu.Unlock()
		if first {
			prog.ExperimentStarted(sh.Experiment.ID)
		}
	}
	// Shard fan-out concurrency: enough in-flight dispatches to keep
	// every worker busy, while each worker's own job gate bounds what
	// actually executes there.
	conc := 2 * len(c.WorkerURLs())
	if conc < 1 {
		conc = 1
	}
	groups := campaign.GroupShards(shards)
	answers, err := exp.Run(ctx, conc, len(groups), func(ctx context.Context, g int) (*campaign.ShardResult, error) {
		for _, i := range groups[g] {
			markStarted(shards[i])
		}
		lead := groups[g][0]
		return c.runShard(ctx, shards[lead], lead, sink)
	})
	if err != nil {
		c.reportDone(prog, spec, nil, err)
		return nil, err
	}
	shardResults := make([]campaign.ShardResult, len(shards))
	for g, group := range groups {
		for _, i := range group {
			shardResults[i] = campaign.ShardResult{Shard: shards[i], Cells: answers[g].Cells}
		}
	}
	mctx, mspan := obs.StartSpan(ctx, "dist.merge")
	if ferr := c.opts.Faults.Fire(mctx, "dist.merge"); ferr != nil {
		err := fmt.Errorf("dist: merge: %w", ferr)
		mspan.RecordError(err)
		mspan.End()
		c.reportDone(prog, spec, nil, err)
		return nil, err
	}
	tables, err := campaign.MergeShards(mctx, spec, shardResults)
	mspan.RecordError(err)
	mspan.End()
	c.reportDone(prog, spec, tables, err)
	return tables, err
}

// progressSink relabels and dedups worker epoch frames for one
// campaign: per shard plan position it forwards each sequence number at
// most once, so a retried or hedged shard — whose rerun deterministically
// regenerates the same samples — never duplicates an SSE event. Frames
// beyond the furthest forwarded sequence keep flowing, so a retry that
// gets further than the failed attempt resumes the live feed seamlessly.
type progressSink struct {
	epoch func(experiment string, s core.EpochSample)
	mu    sync.Mutex
	max   map[int]int64
}

// newProgressSink builds the sink, or nil when the campaign has no
// epoch callback (nil sinks drop frames and suppress stream requests).
func newProgressSink(prog campaign.Progress) *progressSink {
	if prog.Epoch == nil {
		return nil
	}
	return &progressSink{epoch: prog.Epoch, max: make(map[int]int64)}
}

// forward republishes one worker epoch frame unless an earlier attempt
// already delivered that sequence number for this shard.
func (ps *progressSink) forward(planIndex int, f EpochFrame) {
	if ps == nil {
		return
	}
	ps.mu.Lock()
	if f.Seq <= ps.max[planIndex] {
		ps.mu.Unlock()
		return
	}
	ps.max[planIndex] = f.Seq
	ps.mu.Unlock()
	ps.epoch(f.Experiment, f.Sample)
}

// reportDone fires ExperimentDone per spec entry with the merged table
// (position-matched) or the campaign-level error.
func (c *Coordinator) reportDone(prog campaign.Progress, spec *campaign.Spec, tables []results.Table, err error) {
	if prog.ExperimentDone == nil {
		return
	}
	for i, e := range spec.Experiments {
		var t results.Table
		if err == nil && i < len(tables) {
			t = tables[i]
		}
		prog.ExperimentDone(e.ID, t, err)
	}
}

// runShard executes one shard: memory cache first, then the disk
// checkpoint store (a resumed campaign), then dispatch with round-robin
// redispatch on failure and straggler hedging. The starting worker
// derives from the shard's seed substream (exp.ShardSeed keyed by the
// shard's plan index), so placement is deterministic for a given plan
// and healthy pool — and never perturbs trial streams, which key off
// the campaign seed alone.
func (c *Coordinator) runShard(ctx context.Context, sh campaign.Shard, planIndex int, sink *progressSink) (*campaign.ShardResult, error) {
	ctx, span := obs.StartSpan(ctx, "shard")
	span.SetAttr("shard", sh.String())
	defer span.End()
	key := sh.Key()
	if r, ok := c.cache.Get(key); ok {
		c.count(&c.stats.CacheHits)
		span.SetAttr("source", "cache")
		// The cached payload is content-addressed; the shard identity
		// (notably ExpIndex) must be this campaign's, not the one that
		// populated the cache.
		r.Shard = sh
		return &r, nil
	}
	if r, ok := loadCheckpoint(c.ckpt, key, sh); ok {
		// The shard completed before a restart: resume from the
		// checkpoint (re-warming the memory cache) instead of recomputing.
		c.count(&c.stats.Resumed)
		span.SetAttr("source", "checkpoint")
		c.cache.Put(key, r)
		r.Shard = sh
		return &r, nil
	}
	if err := c.awaitWorkers(ctx); err != nil {
		span.RecordError(err)
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt <= c.opts.Retries; attempt++ {
		if attempt > 0 {
			c.count(&c.stats.Retries)
			c.opts.Logger.Info("redispatching shard", "shard", sh.String(), "attempt", attempt, "error", lastErr)
		}
		primary, secondary := c.placeShard(sh, planIndex, attempt)
		if primary == nil {
			return nil, errors.New("dist: no workers registered")
		}
		r, err := c.dispatchHedged(ctx, primary, secondary, sh, planIndex, attempt, sink)
		if err == nil {
			c.cache.Put(key, *r)
			if c.ckpt != nil && saveCheckpoint(c.ckpt, key, r) == nil {
				c.count(&c.stats.Checkpointed)
			}
			return r, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	err := fmt.Errorf("dist: shard %s failed after %d attempts: %w", sh, c.opts.Retries+1, lastErr)
	span.RecordError(err)
	return nil, err
}

// placeShard picks one attempt's primary worker — and a distinct
// secondary for hedging — from the breaker-eligible pool, preserving
// the deterministic seed-derived round-robin of the pre-breaker era.
func (c *Coordinator) placeShard(sh campaign.Shard, planIndex, attempt int) (primary, secondary *workerState) {
	ws := c.eligibleWorkers(time.Now())
	if len(ws) == 0 {
		return nil, nil
	}
	start := int(uint64(exp.ShardSeed(sh.Seed, planIndex)) % uint64(len(ws)))
	primary = ws[(start+attempt)%len(ws)]
	if len(ws) > 1 {
		secondary = ws[(start+attempt+1)%len(ws)]
	}
	return primary, secondary
}

// dispatchOutcome carries one dispatch attempt through the hedge race.
type dispatchOutcome struct {
	r   *campaign.ShardResult
	err error
}

// dispatchTo runs one dispatch against one worker and feeds the outcome
// into its breaker. A cancelled context is the campaign's doing, not
// the worker's, and counts against no one. Each attempt gets its own
// shard.dispatch span — a retried shard's trace shows every failed
// attempt beside the one that succeeded, fault annotations included.
func (c *Coordinator) dispatchTo(ctx context.Context, w *workerState, sh campaign.Shard, planIndex, attempt int, hedged bool, sink *progressSink) (*campaign.ShardResult, error) {
	_, span := obs.StartSpan(ctx, "shard.dispatch")
	span.SetAttr("worker", w.url)
	span.SetAttr("attempt", strconv.Itoa(attempt))
	if hedged {
		span.SetAttr("hedged", "true")
	}
	defer span.End()
	t0 := time.Now()
	r, err := c.dispatch(ctx, w.url, sh, planIndex, sink, span)
	if err != nil {
		span.RecordError(err)
		var fe *faultinject.Error
		if errors.As(err, &fe) {
			span.SetAttr("fault_point", fe.Point)
		}
		if ctx.Err() == nil {
			c.recordFailure(w)
			c.opts.Logger.Warn("shard dispatch failed", "shard", sh.String(), "worker", w.url, "attempt", attempt, "error", err)
		}
		return nil, fmt.Errorf("worker %s: %w", w.url, err)
	}
	c.recordSuccess(w, time.Since(t0))
	return r, nil
}

// dispatchHedged races a straggling primary dispatch against a
// speculative secondary: if the primary has not answered within the
// hedge delay, the same shard also goes to the secondary and the first
// byte-complete success wins. The loser is not cancelled — its result
// is audited against the winner's in the background, because shard
// execution is deterministic per build and the two must be
// byte-identical; any divergence bumps Stats.HedgeMismatches rather than
// silently merging whichever bytes arrived first.
func (c *Coordinator) dispatchHedged(ctx context.Context, primary, secondary *workerState, sh campaign.Shard, planIndex, attempt int, sink *progressSink) (*campaign.ShardResult, error) {
	delay := c.hedgeDelay()
	if delay <= 0 || secondary == nil {
		return c.dispatchTo(ctx, primary, sh, planIndex, attempt, false, sink)
	}
	ch := make(chan dispatchOutcome, 2)
	launch := func(w *workerState, hedged bool) {
		r, err := c.dispatchTo(ctx, w, sh, planIndex, attempt, hedged, sink)
		ch <- dispatchOutcome{r, err}
	}
	go launch(primary, false)
	inflight := 1
	timer := time.NewTimer(delay)
	defer timer.Stop()
	var firstErr error
	for {
		select {
		case <-timer.C:
			c.count(&c.stats.Hedges)
			c.opts.Logger.Info("hedging straggler dispatch", "shard", sh.String(), "worker", secondary.url, "after", delay)
			go launch(secondary, true)
			inflight++
		case out := <-ch:
			inflight--
			if out.err == nil {
				if inflight > 0 {
					go c.auditLoser(ch, out.r)
				}
				return out.r, nil
			}
			if firstErr == nil {
				firstErr = out.err
			}
			if inflight == 0 {
				return nil, firstErr
			}
		}
	}
}

// auditLoser consumes the hedge race's losing dispatch and asserts byte
// identity with the winner. Detached: campaigns never wait on a
// straggler just to audit it.
func (c *Coordinator) auditLoser(ch <-chan dispatchOutcome, winner *campaign.ShardResult) {
	out := <-ch
	if out.err != nil {
		// The loser failing outright proves nothing about determinism —
		// the hedge existed precisely because it looked unhealthy.
		return
	}
	wb, werr := json.Marshal(winner)
	lb, lerr := json.Marshal(out.r)
	if werr != nil || lerr != nil || !bytes.Equal(wb, lb) {
		c.count(&c.stats.HedgeMismatches)
		c.opts.Logger.Error("hedge audit mismatch: shard results not byte-identical", "shard", winner.Shard.String())
	}
}

// dispatch POSTs one shard to one worker and decodes the streamed
// result: epoch frames relay live through the sink and the worker's
// span subtree grafts under this attempt's span. The dist.dispatch
// fault point fires first: an injected error is a failed attempt,
// exercising the redispatch path without a real dead worker.
func (c *Coordinator) dispatch(ctx context.Context, workerURL string, sh campaign.Shard, planIndex int, sink *progressSink, span *obs.Span) (*campaign.ShardResult, error) {
	if err := c.opts.Faults.Fire(ctx, "dist.dispatch"); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.stats.Dispatched[workerURL]++
	c.mu.Unlock()
	if c.opts.ShardTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.opts.ShardTimeout)
		defer cancel()
	}
	body, err := json.Marshal(ShardRequest{
		Build:       results.ThisBuild(),
		Shard:       sh,
		Traceparent: span.Traceparent(),
	})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, workerURL+ShardPath, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.opts.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("shard rejected: %s: %s", resp.Status, errorBody(resp.Body))
	}
	r, err := c.consumeStream(resp.Body, planIndex, sink, span)
	if err != nil {
		return nil, err
	}
	// A malformed answer is a failed attempt: it must never reach the
	// cache, the checkpoint store or a hedge race's winner.
	if err := r.Check(sh); err != nil {
		return nil, err
	}
	// Trust the request's identity, not the echo: merges key on ExpIndex.
	r.Shard = sh
	return r, nil
}

// consumeStream drains a streamed shard response: epoch frames forward
// through the sink as they arrive (the live feed), and the terminal
// frame yields the result — grafting the worker's exported span subtree
// — or the worker-side error. A stream that ends without a terminal
// frame (worker crashed mid-shard) is a failed attempt like any other.
func (c *Coordinator) consumeStream(body io.Reader, planIndex int, sink *progressSink, span *obs.Span) (*campaign.ShardResult, error) {
	dec := json.NewDecoder(body)
	for {
		var f StreamFrame
		if err := dec.Decode(&f); err != nil {
			if errors.Is(err, io.EOF) {
				return nil, errors.New("shard stream ended without a result frame")
			}
			return nil, fmt.Errorf("decode shard stream frame: %w", err)
		}
		switch {
		case f.Epoch != nil:
			sink.forward(planIndex, *f.Epoch)
		case f.Error != "":
			span.Graft(f.Trace)
			return nil, errors.New(f.Error)
		case f.Result != nil:
			span.Graft(f.Trace)
			return f.Result, nil
		}
	}
}

// errorBody extracts a JSON error message (or raw text) from a failed
// response, truncated to keep shard errors readable.
func errorBody(r io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(r, 1024))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(b, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(b))
}

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/loadgen"
	"repro/internal/server"
)

// serve-mixed drives an in-process htserved with an open-loop schedule
// from loadgen.BuildPlan under loadgen.DefaultMix: cached and uncached
// campaigns, sims, artifact GETs, SSE followers and cancels. It differs
// from htload in how it times: each request is timed from when it was
// due, not from when a generator got to it, so a stall's delay to every
// later request counts; a job's completion is read from its event stream
// to end-of-stream instead of being polled; and the process offers at
// most nproc generator goroutines and nproc HTTP connections.
const (
	// mixedRate is the reference offered rate, in requests per second,
	// well below the knee (900–1,400 req/s on two CPUs: server.max_rps).
	// At 200 req/s the CPUs idle between requests and latency swung
	// bimodally from run to run.
	mixedRate = 400.0
	// mixedClients is the number of logical loadgen clients: independent
	// RNG streams whose follow-up ops target their own submissions.
	mixedClients = 8
	// latencyLimit bounds the all-ops p90, timed from due time, that a
	// ladder step may reach and still count as sustained.
	latencyLimit = 20 * time.Millisecond
	// ladderFactor and ladderSteps shape the rate ladder above the
	// reference rate.
	ladderFactor = 1.25
	ladderSteps  = 6
)

type serveMixed struct {
	cfg  *runConfig
	seed int64
	mu   sync.Mutex
	// refs maps a campaign submission body to its reference artifacts by
	// file name, built with one worker through BuildTables and
	// results.WriteFormat before the phase that reads them.
	refs map[string]map[string][]byte
}

func openServeMixed(cfg *runConfig, seed int64) (workload, error) {
	return &serveMixed{cfg: cfg, seed: seed, refs: make(map[string]map[string][]byte)}, nil
}

// reference computes (once) the artifacts of one campaign body.
func (w *serveMixed) reference(ctx context.Context, body string) error {
	w.mu.Lock()
	_, ok := w.refs[body]
	w.mu.Unlock()
	if ok {
		return nil
	}
	arts, err := localArtifacts(ctx, body)
	if err != nil {
		return err
	}
	w.mu.Lock()
	w.refs[body] = arts
	w.mu.Unlock()
	return nil
}

// plan builds one phase's schedule: BuildPlan's open-loop arrivals under
// a phase-specific seed, cut to exactly rate × d requests and rescaled so
// the last one is due at d. Conditioned on its count, a Poisson schedule
// is uniform order statistics, so the cut keeps its shape while every
// seed offers the same load.
func (w *serveMixed) plan(name string, rate float64, d time.Duration) ([]loadgen.Op, error) {
	n := int(math.Round(rate * d.Seconds()))
	if n < 1 {
		n = 1
	}
	horizon := 2*d + time.Second
	for {
		p, err := loadgen.BuildPlan(loadgen.Config{
			Mode:     loadgen.ModeOpen,
			Clients:  mixedClients,
			Rate:     rate,
			Duration: horizon,
			Seed:     exp.StreamSeed(w.seed, name),
			Spec:     loadgen.DefaultSpec,
		})
		if err != nil {
			return nil, err
		}
		if len(p.Ops) < n {
			horizon *= 2
			continue
		}
		ops := p.Ops[:n]
		last := float64(ops[n-1].AtMicros)
		for i := range ops {
			if last > 0 {
				ops[i].AtMicros = int64(float64(ops[i].AtMicros) * float64(d.Microseconds()) / last)
			}
		}
		return ops, nil
	}
}

// prepare computes the references every artifact_get of ops will read.
func (w *serveMixed) prepare(ctx context.Context, ops []loadgen.Op) error {
	for _, op := range ops {
		if op.Kind != loadgen.KindArtifactGet {
			continue
		}
		f := ops[op.Follows]
		if f.Kind == loadgen.KindCampaignCached || f.Kind == loadgen.KindCampaignUncached {
			if err := w.reference(ctx, f.Body); err != nil {
				return err
			}
		}
	}
	return nil
}

type mixedInst struct {
	w      *serveMixed
	svc    *service
	client *http.Client
	// phases counts measure calls; each phase draws its schedule from its
	// own seed, so uncached payloads never repeat across phases.
	phases int
}

// start boots the server (Workers and Jobs = nproc, a 64-deep queue) on a
// loopback listener and waits for /v1/healthz to answer 200.
func (w *serveMixed) start(ctx context.Context) (instance, error) {
	svc, err := startService(server.Options{Workers: w.cfg.nproc, Jobs: w.cfg.nproc, QueueDepth: 64})
	if err != nil {
		return nil, err
	}
	in := &mixedInst{w: w, svc: svc, client: newLoadClient(w.cfg.nproc)}
	if err := waitReady(ctx, in.client, svc.url); err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

func (in *mixedInst) close() {
	in.svc.close()
	in.client.CloseIdleConnections()
}

// firstOp submits the shared cached-campaign spec — a cache miss on a
// fresh server — and reads its events to the end.
func (in *mixedInst) firstOp(ctx context.Context) error {
	id, err := submit(ctx, in.client, in.svc.url, "/v1/campaigns", loadgen.DefaultSpec)
	if err != nil {
		return err
	}
	st, err := readEvents(ctx, in.client, in.svc.url, id)
	if err != nil {
		return err
	}
	if st.state != "done" {
		return fmt.Errorf("job %s ended %s", id, st.state)
	}
	return nil
}

// measure runs one phase at the reference rate; its throughput is the
// verified completion rate there. The untraced measured pass spends half
// its time at the reference rate and the other half on the rate ladder.
func (in *mixedInst) measure(ctx context.Context, d time.Duration, tr *tracer) (*phase, error) {
	in.phases++
	name := fmt.Sprintf("phase-%d", in.phases)
	ladder := tr == nil && d == in.w.cfg.measure
	refDur := d
	if ladder {
		refDur = d / 2
	}
	ops, err := in.w.plan(name, mixedRate, refDur)
	if err != nil {
		return nil, err
	}
	var steps [][]loadgen.Op
	stepDur := (d - refDur) / ladderSteps
	if ladder {
		for k := 1; k <= ladderSteps; k++ {
			s, err := in.w.plan(fmt.Sprintf("%s-ladder-%d", name, k), ladderRate(k), stepDur)
			if err != nil {
				return nil, err
			}
			steps = append(steps, s)
		}
	}
	for _, s := range append(steps, ops) {
		if err := in.w.prepare(ctx, s); err != nil {
			return nil, fmt.Errorf("references: %w", err)
		}
	}

	var before map[string]float64
	if tr != nil {
		if before, err = scrape(ctx, in.client, in.svc.url); err != nil {
			return nil, err
		}
	}
	r := newMixedRun(in, ops, tr)
	p, err := r.run(ctx, refDur)
	if err != nil {
		return nil, err
	}
	p.info = map[string]any{"reference": r.summary(mixedRate)}
	t0 := time.Now()
	defer func() { p.after = time.Since(t0) }()
	if tr != nil {
		if err := r.graftTraces(ctx); err != nil {
			return nil, err
		}
		after, err := scrape(ctx, in.client, in.svc.url)
		if err != nil {
			return nil, err
		}
		p.layer = servingCounts(before, after, len(p.lat))
	}
	if ladder {
		if err := in.runLadder(ctx, p, r, steps, stepDur); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// servingCounts turns two Prometheus scrapes around a phase into the
// serving layer's counts.
func servingCounts(before, after map[string]float64, ops int) map[string]float64 {
	delta := func(k string) float64 { return after[k] - before[k] }
	hits := delta(`htserved_cache_lookups_total{tier="memory"}`) + delta(`htserved_cache_lookups_total{tier="disk"}`)
	lookups := hits + delta(`htserved_cache_lookups_total{tier="miss"}`)
	m := map[string]float64{
		"server.shed":        delta("htserved_jobs_rejected_total"),
		"server.sse_dropped": delta("htserved_sse_events_dropped_total"),
		"core.epochs_per_op": delta("htserved_epochs_observed_total") / float64(max(ops, 1)),
	}
	if lookups > 0 {
		m["server.cache_hit_frac"] = hits / lookups
	}
	return m
}

// stepResult is one ladder step.
type stepResult struct {
	Rate  float64 `json:"rate"`
	P90Ms float64 `json:"p90_ms"`
	// LagP90Ms is how late the generator started ops; LagGrowthMs how
	// much later it ran in the step's last quarter than in its first
	// (median lag, by due order).
	LagP90Ms    float64 `json:"lag_p90_ms"`
	LagGrowthMs float64 `json:"lag_growth_ms"`
	Shed        int     `json:"shed"`
	Pass        bool    `json:"pass"`
}

// lagGrowthLimit fails a step whose generator fell this much further
// behind across it: a growing backlog, even below the latency limit.
const lagGrowthLimit = latencyLimit / 2

// runLadder raises the offered rate by ladderFactor per step until a step
// misses the latency limit or its generator lag grows, and records the
// interpolated rate at which the all-ops p90 crosses the limit as the
// per-layer server.max_rps. Over ten seeds it spread by 24 % (the knee
// moves with the host's speed), too much to gate on.
func (in *mixedInst) runLadder(ctx context.Context, p *phase, ref *mixedRun, steps [][]loadgen.Op, stepDur time.Duration) error {
	prev := ref.step(p, mixedRate)
	results := []stepResult{prev}
	// A ladder that never fails reports its top rate.
	maxRPS := ladderRate(len(steps))
	if !prev.Pass {
		// Over the limit already at the reference rate: interpolate from
		// an idle server.
		maxRPS = crossing(stepResult{}, prev)
		steps = nil
	}
	for k, ops := range steps {
		r := newMixedRun(in, ops, nil)
		sp, err := r.run(ctx, stepDur)
		if err != nil {
			return err
		}
		cur := r.step(sp, ladderRate(k+1))
		results = append(results, cur)
		if !cur.Pass {
			maxRPS = crossing(prev, cur)
			break
		}
		prev = cur
	}
	if p.layer == nil {
		p.layer = make(map[string]float64)
	}
	p.layer["server.max_rps"] = maxRPS
	p.info["ladder"] = results
	return nil
}

// ladderRate is the offered rate of ladder step k (0 = reference).
func ladderRate(k int) float64 { return mixedRate * math.Pow(ladderFactor, float64(k)) }

// crossing interpolates the offered rate at which the p90 reaches the
// latency limit between a passing and a failing step. A step that failed
// on lag growth alone counts as crossing at its own rate.
func crossing(pass, fail stepResult) float64 {
	limit := float64(latencyLimit) / float64(time.Millisecond)
	if fail.P90Ms <= limit || fail.P90Ms <= pass.P90Ms {
		return fail.Rate
	}
	return pass.Rate + (limit-pass.P90Ms)*(fail.Rate-pass.Rate)/(fail.P90Ms-pass.P90Ms)
}

// mixedRun executes one schedule.
type mixedRun struct {
	in  *mixedInst
	ops []loadgen.Op
	tr  *tracer

	mu sync.Mutex
	// ids, final: each submission's job id and terminal state. idReady
	// closes when its POST returned, done when its event stream ended.
	ids     []string
	final   []string
	idReady []chan struct{}
	done    []chan struct{}
	// per-op outcome: latency from due time, generator lag, and whether it
	// was shed, skipped or failed verification.
	lat, lag              []time.Duration
	shed, skipped, failed []bool
	traced                []tracedJob
}

// tracedJob is a traced submission whose server trace is grafted under
// its op span once the phase ends.
type tracedJob struct {
	sp spanRef
	id string
}

func newMixedRun(in *mixedInst, ops []loadgen.Op, tr *tracer) *mixedRun {
	r := &mixedRun{
		in: in, ops: ops, tr: tr,
		ids: make([]string, len(ops)), final: make([]string, len(ops)),
		idReady: make([]chan struct{}, len(ops)), done: make([]chan struct{}, len(ops)),
		lat: make([]time.Duration, len(ops)), lag: make([]time.Duration, len(ops)),
		shed: make([]bool, len(ops)), skipped: make([]bool, len(ops)), failed: make([]bool, len(ops)),
	}
	for i := range ops {
		r.idReady[i] = make(chan struct{})
		r.done[i] = make(chan struct{})
	}
	return r
}

// run executes every op at its due time on nproc generator goroutines
// and waits for all of them. Generators take ops in schedule order and
// each sleeps until its op is due, so an op that finds every generator
// busy starts late, and that wait counts in its latency.
func (r *mixedRun) run(ctx context.Context, d time.Duration) (*phase, error) {
	p := &phase{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	var failMu sync.Mutex
	for g := 0; g < r.in.w.cfg.nproc; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(r.ops) || ctx.Err() != nil {
					return
				}
				due := start.Add(time.Duration(r.ops[i].AtMicros) * time.Microsecond)
				if !sleepUntil(ctx, due) {
					return
				}
				r.lag[i] = time.Since(due)
				sp := r.tr.newOp(due)
				err := r.exec(ctx, i, sp)
				sp.end()
				r.lat[i] = time.Since(due)
				if err != nil && ctx.Err() == nil {
					r.failed[i] = true
					failMu.Lock()
					p.fail(fmt.Sprintf("%s[%d]: %v", r.ops[i].Kind, i, err))
					failMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	runtime.ReadMemStats(&after)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r.tally(p, d)
	return p, nil
}

// tally folds the ops' outcomes into p. A shed request misses every
// latency limit, so it enters the percentiles as a full phase length d; a
// failed op, as in closedLoop, leaves no latency sample. Only verified ops
// count as completed.
func (r *mixedRun) tally(p *phase, d time.Duration) {
	for i := range r.ops {
		if r.skipped[i] {
			continue
		}
		p.attempted++
		if r.failed[i] {
			continue
		}
		lat := r.lat[i]
		if r.shed[i] {
			lat = d
		} else {
			p.completed++
		}
		p.lat = append(p.lat, lat)
		due := time.Duration(r.ops[i].AtMicros) * time.Microsecond
		p.doneAt = append(p.doneAt, due+r.lat[i])
	}
}

// timerSlack covers the Go runtime's idle timer resolution on Linux,
// which rounds a parked wait up to whole milliseconds: a plain sleep to
// the due time would start every op up to a millisecond late.
const timerSlack = 1200 * time.Microsecond

// sleepUntil parks until shortly before t, then yields the processor in
// a loop until t, so an op starts on time; it reports false when ctx ends
// first.
func sleepUntil(ctx context.Context, t time.Time) bool {
	if wait := time.Until(t) - timerSlack; wait > 0 {
		tm := time.NewTimer(wait)
		select {
		case <-tm.C:
		case <-ctx.Done():
			tm.Stop()
			return false
		}
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
	return ctx.Err() == nil
}

// exec runs op i and verifies it; shed and skipped ops are marked, not
// failed.
func (r *mixedRun) exec(ctx context.Context, i int, sp spanRef) error {
	op := &r.ops[i]
	switch op.Kind {
	case loadgen.KindArtifactGet:
		return r.artifactGet(ctx, i, op, sp)
	case loadgen.KindSSE:
		return r.follow(ctx, i, op, sp)
	default:
		return r.submission(ctx, i, op, sp)
	}
}

// submission POSTs a job (and, for a cancel op, DELETEs it at once), then
// reads its event stream to the end.
func (r *mixedRun) submission(ctx context.Context, i int, op *loadgen.Op, sp spanRef) error {
	defer close(r.done[i])
	post := sp.child("http.post")
	id, err := submit(ctx, r.in.client, r.in.svc.url, op.Path, op.Body)
	post.end()
	r.mu.Lock()
	r.ids[i] = id
	r.mu.Unlock()
	close(r.idReady[i])
	if errors.Is(err, errShed) {
		r.shed[i] = true
		return nil
	}
	if err != nil {
		return err
	}
	cancel := op.Kind == loadgen.KindCancel
	if cancel {
		// The DELETE races the run on purpose: 202 (cancelling) and 409
		// (the job finished first) are both correct.
		del := sp.child("http.delete")
		status, _, err := do(ctx, r.in.client, http.MethodDelete, r.in.svc.url+"/v1/jobs/"+id, "")
		del.end()
		if err != nil {
			return err
		}
		if status != http.StatusAccepted && status != http.StatusConflict {
			return fmt.Errorf("DELETE %s = %d", id, status)
		}
	}
	sse := sp.child("http.sse")
	st, err := readEvents(ctx, r.in.client, r.in.svc.url, id)
	sse.end()
	if err != nil {
		return err
	}
	r.mu.Lock()
	r.final[i] = st.state
	if r.tr != nil {
		r.traced = append(r.traced, tracedJob{sp, id})
	}
	r.mu.Unlock()
	if st.state != "done" && !(cancel && st.state == "cancelled") {
		return fmt.Errorf("job %s ended %s", id, st.state)
	}
	return nil
}

// artifactGet waits for the followed job to finish, fetches one of its
// artifacts and checks the bytes: campaign artifacts against the local
// reference, sim artifacts for being non-empty.
func (r *mixedRun) artifactGet(ctx context.Context, i int, op *loadgen.Op, sp spanRef) error {
	f := op.Follows
	select {
	case <-r.done[f]:
	case <-ctx.Done():
		return ctx.Err()
	}
	r.mu.Lock()
	id, state := r.ids[f], r.final[f]
	r.mu.Unlock()
	if state != "done" {
		r.skipped[i] = true // the followed submission was shed or failed
		return nil
	}
	get := sp.child("http.get")
	got, err := getArtifact(ctx, r.in.client, r.in.svc.url, id, op.Artifact)
	get.end()
	if err != nil {
		return err
	}
	followed := r.ops[f]
	if followed.Kind == loadgen.KindSim {
		if len(got) == 0 {
			return fmt.Errorf("artifact %s of %s is empty", op.Artifact, id)
		}
		return nil
	}
	r.in.w.mu.Lock()
	want, ok := r.in.w.refs[followed.Body][op.Artifact]
	r.in.w.mu.Unlock()
	if !ok {
		return fmt.Errorf("no reference for artifact %s", op.Artifact)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("artifact %s of %s differs from the reference (%d vs %d bytes)", op.Artifact, id, len(got), len(want))
	}
	return nil
}

// follow subscribes to the followed job's event stream as a second
// watcher and reads it to the end.
func (r *mixedRun) follow(ctx context.Context, i int, op *loadgen.Op, sp spanRef) error {
	f := op.Follows
	select {
	case <-r.idReady[f]:
	case <-ctx.Done():
		return ctx.Err()
	}
	r.mu.Lock()
	id := r.ids[f]
	r.mu.Unlock()
	if id == "" {
		r.skipped[i] = true
		return nil
	}
	sse := sp.child("http.sse")
	st, err := readEvents(ctx, r.in.client, r.in.svc.url, id)
	sse.end()
	if err != nil {
		return err
	}
	if st.state != "done" {
		return fmt.Errorf("followed job %s ended %s", id, st.state)
	}
	return nil
}

// graftTraces fetches each traced submission's span tree and grafts it
// under the op that submitted it. It runs after the phase's clock stopped.
func (r *mixedRun) graftTraces(ctx context.Context) error {
	for _, j := range r.traced {
		root, err := fetchTrace(ctx, r.in.client, r.in.svc.url, j.id)
		if err != nil {
			return err
		}
		j.sp.graft(root)
	}
	return nil
}

// step summarises the run's phase p as a ladder step at the offered rate;
// shed requests count in its p90 as a full step length.
func (r *mixedRun) step(p *phase, rate float64) stepResult {
	s := stepResult{Rate: rate}
	if len(p.lat) > 0 {
		s.P90Ms = quantile(ms(p.lat), 0.9)
	}
	var lag []time.Duration
	for i := range r.ops {
		if r.skipped[i] {
			continue
		}
		lag = append(lag, r.lag[i])
		if r.shed[i] {
			s.Shed++
		}
	}
	if len(lag) > 0 {
		s.LagP90Ms = quantile(ms(lag), 0.9)
	}
	if q := len(lag) / 4; q > 0 {
		s.LagGrowthMs = median(ms(lag[len(lag)-q:])) - median(ms(lag[:q]))
	}
	s.Pass = s.P90Ms <= float64(latencyLimit)/float64(time.Millisecond) &&
		s.LagGrowthMs <= float64(lagGrowthLimit)/float64(time.Millisecond)
	return s
}

// summary reports a reference phase's figures for the result file:
// per-kind medians (the cached and uncached campaign latencies among
// them) and the generator's lag.
func (r *mixedRun) summary(rate float64) map[string]any {
	byKind := make(map[string][]time.Duration)
	var lag []time.Duration
	shed, skipped := 0, 0
	for i := range r.ops {
		switch {
		case r.skipped[i]:
			skipped++
			continue
		case r.shed[i]:
			shed++
		case r.failed[i]:
		default:
			byKind[r.ops[i].Kind] = append(byKind[r.ops[i].Kind], r.lat[i])
		}
		lag = append(lag, r.lag[i])
	}
	p50 := make(map[string]float64, len(byKind))
	for k, v := range byKind {
		p50[k] = median(ms(v))
	}
	out := map[string]any{
		"offered_rate":   rate,
		"ops":            len(r.ops),
		"shed":           shed,
		"skipped":        skipped,
		"p50_ms_by_kind": p50,
	}
	if lagMs := ms(lag); len(lagMs) > 0 {
		out["lag_p50_ms"] = median(lagMs)
		out["lag_p90_ms"] = quantile(lagMs, 0.9)
		out["lag_max_ms"] = quantile(lagMs, 1)
	}
	return out
}

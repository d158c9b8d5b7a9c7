package loadgen

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/histo"
	"repro/internal/obs"
)

// This file executes a built plan against the live service. Workers
// only execute — every random choice was drawn in plan.go — so worker
// count and scheduling jitter affect timings, never the request
// sequence. Each op resolves to one verified interaction:
//
//	submissions   POST, then poll the job to a terminal state
//	cancel        POST, DELETE immediately, poll to terminal
//	artifact_get  wait for the followed job, GET one artifact
//	sse           stream the followed job's events to end-of-stream
//
// A 429 is the server doing its declared job under overload: it counts
// as "shed", not as a failure. Everything else unexpected — wrong
// status class, artifact bytes differing from the locally computed
// reference, non-monotonic SSE ids — is a verification failure.

// Op outcomes.
const (
	outcomeOK      = "ok"
	outcomeShed    = "shed"
	outcomeFailed  = "failed"
	outcomeSkipped = "skipped"
)

// opResult is one executed op's measurement.
type opResult struct {
	op      *Op
	outcome string
	err     string
	// latency is the measured interaction (submission→terminal, GET
	// round-trip, or full SSE stream); lag is how late behind the
	// open-loop schedule the dispatch happened.
	latency time.Duration
	lag     time.Duration
}

// jobView is the slice of the service's job status the harness reads.
type jobView struct {
	ID        string   `json:"id"`
	State     string   `json:"state"`
	Cache     string   `json:"cache"`
	Error     string   `json:"error"`
	Artifacts []string `json:"artifacts"`
}

// terminal reports whether the job reached an end state.
func (j *jobView) terminal() bool {
	switch j.State {
	case "done", "failed", "cancelled":
		return true
	}
	return false
}

type executor struct {
	cfg    Config
	plan   *Plan
	client *http.Client
	refs   *refStore

	mu     sync.Mutex
	jobIDs []string // job id per plan index, "" until known
	sent   []string // body actually sent per plan index (nonce applied)
	done   int      // completed ops, for progress lines
}

func newExecutor(cfg Config, plan *Plan) *executor {
	return &executor{
		cfg:  cfg,
		plan: plan,
		// No client-level timeout: SSE streams are long-lived by design.
		// Every other interaction is bounded by the poll deadline.
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: cfg.Workers + cfg.Clients}},
		refs:   newRefStore(),
		jobIDs: make([]string, len(plan.Ops)),
		sent:   make([]string, len(plan.Ops)),
	}
}

// run executes the plan and aggregates the report.
func (ex *executor) run() (*Report, error) {
	results := make([]opResult, len(ex.plan.Ops))
	start := time.Now()
	if ex.cfg.Mode == ModeOpen {
		ex.runOpen(start, results)
	} else {
		ex.runClosed(results)
	}
	wall := time.Since(start)
	rep := buildReport(ex.cfg, ex.plan, results, wall)
	// Attribution reads trace trees after the wall clock stops, so the
	// extra GETs never pollute the measured latencies.
	rep.Attribution = ex.attributeTraces(results)
	return rep, nil
}

// maxTraceFetches caps the post-run attribution pass: one GET per
// successful submission, sampled from the front of the schedule. The
// report's jobs/sampled split makes the cap visible.
const maxTraceFetches = 500

// attributeTraces splits completed submissions' end-to-end latency into
// where the time went — queue.wait vs gate.wait vs run — by reading
// each job's trace tree from GET /v1/jobs/{id}/trace. Runs after the
// timed phase. Returns nil when the target serves no traces (--no-trace
// or a pre-tracing server): the first 404 abandons the pass.
func (ex *executor) attributeTraces(results []opResult) *TraceAttribution {
	attr := &TraceAttribution{}
	qh, gh, rh := histo.NewLatency(), histo.NewLatency(), histo.NewLatency()
	fetched := 0
	for i := range results {
		res := &results[i]
		if res.op == nil || !res.op.isSubmission() || res.outcome != outcomeOK {
			continue
		}
		id := ex.jobIDs[res.op.Index]
		if id == "" {
			continue
		}
		attr.Jobs++
		if fetched >= maxTraceFetches {
			continue // keep counting jobs so the sampling cap is visible
		}
		resp, err := ex.client.Get(ex.cfg.Target + "/v1/jobs/" + id + "/trace")
		if err != nil {
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return nil // tracing is off server-side; no attribution to report
		}
		var tr struct {
			Root *obs.Node `json:"root"`
		}
		derr := json.NewDecoder(resp.Body).Decode(&tr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || derr != nil || tr.Root == nil {
			continue
		}
		fetched++
		attr.Sampled++
		for _, span := range []struct {
			name string
			h    *histo.Histogram
		}{{"queue.wait", qh}, {"gate.wait", gh}, {"run", rh}} {
			if n := tr.Root.Find(span.name); n != nil {
				span.h.Observe(n.DurationSeconds)
			}
		}
	}
	if attr.Sampled == 0 {
		return nil
	}
	attr.QueueWait = summarize(qh)
	attr.GateWait = summarize(gh)
	attr.Run = summarize(rh)
	return attr
}

// runOpen dispatches ops at their scheduled offsets through a worker
// pool. Dispatch never waits for completions — if the service is slower
// than the arrival rate, queueing shows up as op latency and dispatch
// lag, exactly like production overload.
func (ex *executor) runOpen(start time.Time, results []opResult) {
	work := make(chan *Op)
	var wg sync.WaitGroup
	for w := 0; w < ex.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for op := range work {
				lag := time.Since(start.Add(op.at()))
				results[op.Index] = ex.execute(op)
				results[op.Index].lag = lag
				ex.progress()
			}
		}()
	}
	for i := range ex.plan.Ops {
		op := &ex.plan.Ops[i]
		if d := time.Until(start.Add(op.at())); d > 0 {
			time.Sleep(d)
		}
		work <- op
	}
	close(work)
	wg.Wait()
}

// runClosed runs each client's op sequence in order, with at most
// cfg.Workers clients in flight at once.
func (ex *executor) runClosed(results []opResult) {
	byClient := make(map[int][]*Op)
	for i := range ex.plan.Ops {
		op := &ex.plan.Ops[i]
		byClient[op.Client] = append(byClient[op.Client], op)
	}
	sem := make(chan struct{}, ex.cfg.Workers)
	var wg sync.WaitGroup
	for c := 0; c < ex.cfg.Clients; c++ {
		ops := byClient[c]
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			for _, op := range ops {
				results[op.Index] = ex.execute(op)
				ex.progress()
			}
		}()
	}
	wg.Wait()
}

// progress emits a heartbeat line every 100 completed ops.
func (ex *executor) progress() {
	if ex.cfg.Progress == nil {
		return
	}
	ex.mu.Lock()
	ex.done++
	n := ex.done
	ex.mu.Unlock()
	if n%100 == 0 {
		fmt.Fprintf(ex.cfg.Progress, "loadgen: %d/%d ops\n", n, len(ex.plan.Ops))
	}
}

// execute runs one op and measures it.
func (ex *executor) execute(op *Op) opResult {
	res := opResult{op: op, outcome: outcomeOK}
	var err error
	t0 := time.Now()
	switch op.Kind {
	case KindCampaignCached, KindCampaignUncached, KindSim, KindDistributed:
		err = ex.submit(op, false)
	case KindCancel:
		err = ex.submit(op, true)
	case KindArtifactGet:
		t0, err = ex.artifactGet(op)
	case KindSSE:
		t0, err = ex.streamSSE(op)
	case KindDrain:
		err = ex.drain(op)
	}
	res.latency = time.Since(t0)
	switch {
	case err == errShed:
		res.outcome = outcomeShed
	case err == errSkipped:
		res.outcome = outcomeSkipped
	case err != nil:
		res.outcome = outcomeFailed
		res.err = fmt.Sprintf("%s[%d] c%d/s%d: %v", op.Kind, op.Index, op.Client, op.Seq, err)
	}
	return res
}

// Sentinel outcomes that are not failures.
var (
	errShed    = fmt.Errorf("shed")
	errSkipped = fmt.Errorf("skipped")
)

// submit POSTs a submission body, records the job id, optionally fires
// the DELETE race (cancel ops), and polls the job to a terminal state.
func (ex *executor) submit(op *Op, cancel bool) error {
	body := applyNonce(op, ex.cfg.Nonce)
	ex.mu.Lock()
	ex.sent[op.Index] = body
	ex.mu.Unlock()
	resp, err := ex.client.Post(ex.cfg.Target+op.Path, "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		return errShed
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("POST %s = %d (want 202): %.200s", op.Path, resp.StatusCode, raw)
	}
	var jv jobView
	if err := json.Unmarshal(raw, &jv); err != nil || jv.ID == "" {
		return fmt.Errorf("POST %s: undecodable job status %.200s", op.Path, raw)
	}
	ex.mu.Lock()
	ex.jobIDs[op.Index] = jv.ID
	ex.mu.Unlock()

	if cancel {
		// DELETE races the run deliberately; 202 (cancelling) and 409
		// (the job beat the DELETE to a terminal state) are both correct
		// server behaviour.
		req, _ := http.NewRequest(http.MethodDelete, ex.cfg.Target+"/v1/jobs/"+jv.ID, nil)
		dresp, derr := ex.client.Do(req)
		if derr != nil {
			return derr
		}
		io.Copy(io.Discard, dresp.Body)
		dresp.Body.Close()
		if dresp.StatusCode != http.StatusAccepted && dresp.StatusCode != http.StatusConflict {
			return fmt.Errorf("DELETE = %d (want 202 or 409)", dresp.StatusCode)
		}
	}

	final, err := ex.waitTerminal(jv.ID)
	if err != nil {
		return err
	}
	if !ex.cfg.Verify {
		return nil
	}
	if cancel {
		// Cancelled normally; done if the race lost. Either way terminal.
		if final.State != "cancelled" && final.State != "done" {
			return fmt.Errorf("cancel landed in state %s (%s)", final.State, final.Error)
		}
		return nil
	}
	if final.State != "done" {
		return fmt.Errorf("job %s finished %s: %s", jv.ID, final.State, final.Error)
	}
	return nil
}

// waitTerminal polls one job until it reaches an end state.
func (ex *executor) waitTerminal(id string) (*jobView, error) {
	deadline := time.Now().Add(60 * time.Second)
	sleep := 2 * time.Millisecond
	for time.Now().Before(deadline) {
		jv, err := ex.getJob(id)
		if err != nil {
			return nil, err
		}
		if jv.terminal() {
			return jv, nil
		}
		time.Sleep(sleep)
		if sleep < 20*time.Millisecond {
			sleep *= 2
		}
	}
	return nil, fmt.Errorf("job %s not terminal after 60s", id)
}

// getJob fetches one job status.
func (ex *executor) getJob(id string) (*jobView, error) {
	resp, err := ex.client.Get(ex.cfg.Target + "/v1/jobs/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("GET job %s = %d: %.200s", id, resp.StatusCode, raw)
	}
	var jv jobView
	if err := json.NewDecoder(resp.Body).Decode(&jv); err != nil {
		return nil, err
	}
	return &jv, nil
}

// followedJob resolves the job id an artifact_get or sse op targets:
// the job its followed submission created. A followed submission that
// was shed (or is itself skipped) leaves nothing to read — the op is
// skipped, not failed.
func (ex *executor) followedJob(op *Op) (string, *Op, error) {
	if op.Follows < 0 {
		return "", nil, errSkipped
	}
	followed := &ex.plan.Ops[op.Follows]
	// In closed-loop mode the followed op (same client, earlier seq)
	// already completed. In open-loop mode dispatch order can outrun the
	// submission's POST; wait briefly for the id to materialise.
	deadline := time.Now().Add(30 * time.Second)
	for {
		ex.mu.Lock()
		id := ex.jobIDs[op.Follows]
		submitted := ex.sent[op.Follows] != ""
		ex.mu.Unlock()
		if id != "" {
			return id, followed, nil
		}
		if submitted || !time.Now().Before(deadline) {
			// POSTed but no id: the submission was shed or failed.
			return "", nil, errSkipped
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// artifactGet waits for the followed job, fetches one artifact, and —
// for campaign jobs — verifies the bytes against the locally computed
// reference (the same tables `htcampaign run` writes for that spec).
// The returned time is the start of the measured GET: the wait for the
// job is the followed submission's latency, not this op's.
func (ex *executor) artifactGet(op *Op) (time.Time, error) {
	id, followed, err := ex.followedJob(op)
	if err != nil {
		return time.Now(), err
	}
	final, err := ex.waitTerminal(id)
	if err != nil {
		return time.Now(), err
	}
	if final.State != "done" {
		// A cancelled/failed followed job has no artifacts to verify.
		return time.Now(), errSkipped
	}
	t0 := time.Now()
	resp, err := ex.client.Get(fmt.Sprintf("%s/v1/jobs/%s/artifacts/%s", ex.cfg.Target, id, op.Artifact))
	if err != nil {
		return t0, err
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return t0, fmt.Errorf("GET artifact %s of %s = %d", op.Artifact, id, resp.StatusCode)
	}
	if !ex.cfg.Verify {
		return t0, nil
	}
	if len(got) == 0 {
		return t0, fmt.Errorf("artifact %s of %s is empty", op.Artifact, id)
	}
	if followed.Kind == KindSim {
		// Sim references would mean re-deriving the server's request
		// normalisation here; byte-identity is pinned on the campaign
		// path, sims are verified structurally (status, non-empty, SSE).
		return t0, nil
	}
	ex.mu.Lock()
	sentBody := ex.sent[op.Follows]
	ex.mu.Unlock()
	want, err := ex.refs.artifact(sentBody, op.Artifact)
	if err != nil {
		return t0, fmt.Errorf("computing reference for %s: %v", op.Artifact, err)
	}
	if !bytes.Equal(got, want) {
		return t0, fmt.Errorf("artifact %s of %s differs from reference (%d vs %d bytes)",
			op.Artifact, id, len(got), len(want))
	}
	return t0, nil
}

// drain runs the configured drain command — the resilience drill:
// typically a script that SIGTERMs one worker, waits, and relaunches
// it. The measured latency is the command's wall time; a nonzero exit
// is a failed op, because a drill that cannot even perturb the
// deployment proves nothing about surviving the perturbation.
func (ex *executor) drain(op *Op) error {
	if ex.cfg.DrainCmd == "" {
		return errSkipped
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "sh", "-c", ex.cfg.DrainCmd).CombinedOutput()
	if err != nil {
		return fmt.Errorf("drain command: %v: %.200s", err, out)
	}
	return nil
}

// streamSSE subscribes to the followed job's event stream and reads it
// to end-of-stream (the log seals when the job finishes), verifying
// that event ids are strictly increasing — drop-oldest may open gaps,
// but order can never invert and ids can never repeat within one
// connection. Strict id monotonicity is also the no-duplicates check
// for per-epoch progress: every epoch event occupies its own id, so a
// replayed or double-forwarded worker sample would surface as a
// repeated id. Distributed submissions carry a simulating experiment by
// construction (distributedSpec), so their streams must additionally
// contain at least one decodable epoch event — the live-progress signal
// workers stream through the coordinator.
func (ex *executor) streamSSE(op *Op) (time.Time, error) {
	id, followed, err := ex.followedJob(op)
	if err != nil {
		return time.Now(), err
	}
	t0 := time.Now()
	resp, err := ex.client.Get(fmt.Sprintf("%s/v1/jobs/%s/events", ex.cfg.Target, id))
	if err != nil {
		return t0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return t0, fmt.Errorf("GET events of %s = %d", id, resp.StatusCode)
	}
	last, events, epochs := -1, 0, 0
	current := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			current = "" // frame boundary
			continue
		}
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			current = name
			continue
		}
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			if current == "epoch" {
				epochs++
				if ex.cfg.Verify {
					var ev struct {
						Experiment string `json:"experiment"`
					}
					if err := json.Unmarshal([]byte(data), &ev); err != nil || ev.Experiment == "" {
						return t0, fmt.Errorf("undecodable epoch event %.200q", data)
					}
				}
			}
			continue
		}
		v, ok := strings.CutPrefix(line, "id: ")
		if !ok {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			return t0, fmt.Errorf("unparseable SSE id line %q", line)
		}
		if ex.cfg.Verify && n <= last {
			return t0, fmt.Errorf("SSE ids not strictly increasing: %d after %d", n, last)
		}
		last = n
		events++
	}
	if err := sc.Err(); err != nil {
		return t0, fmt.Errorf("reading events of %s: %v", id, err)
	}
	if ex.cfg.Verify && events == 0 {
		return t0, fmt.Errorf("event stream of %s delivered nothing", id)
	}
	if ex.cfg.Verify && followed.Kind == KindDistributed && epochs == 0 {
		return t0, fmt.Errorf("distributed job %s streamed no epoch events", id)
	}
	return t0, nil
}

// applyNonce derives the payload actually sent for an op: with no nonce
// it is the planned body verbatim; with one, campaign names carry the
// nonce suffix and sim seeds are re-derived through it, so every
// submission misses a long-lived server's content-addressed cache
// while the plan bytes stay untouched.
func applyNonce(op *Op, nonce string) string {
	if nonce == "" || op.Body == "" {
		return op.Body
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(op.Body), &m); err != nil {
		return op.Body
	}
	switch op.Kind {
	case KindCampaignCached, KindCampaignUncached, KindCancel, KindDistributed:
		name, _ := m["name"].(string)
		m["name"] = name + "-" + nonce
		// The shared cached spec must still collide across clients within
		// this run — every client applies the same rewrite, so it does.
		seed, _ := m["seed"].(float64)
		m["seed"] = positiveSeed(int64(seed), "nonce-"+nonce)
	case KindSim:
		seed, _ := m["seed"].(float64)
		m["seed"] = positiveSeed(int64(seed), "nonce-"+nonce)
	}
	out, err := json.Marshal(m)
	if err != nil {
		return op.Body
	}
	return string(out)
}

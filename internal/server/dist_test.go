package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// distSpec exercises every shard shape in one campaign: E1 is atomic
// (whole-table shard), E3 is an infection-curve trial space, E5 a
// distribution-comparison trial space.
const distSpec = `{"name":"dist","seed":7,"experiments":[{"id":"E1","params":{"size":64}},{"id":"E3","params":{"trials":3}},{"id":"E5","params":{"sizes":[16,64],"trials":2}}]}`

// distArtifacts are the files byte-compared between local and
// distributed runs.
var distArtifacts = []string{"e1.json", "e1.csv", "e3.json", "e3.csv", "e5.json", "e5.csv"}

// newWorkerPool boots n plain htserved instances (every instance is a
// capable shard worker) and returns their base URLs. faultsFor may arm a
// specific worker's fault registry (nil = none).
func newWorkerPool(t *testing.T, n int, faultsFor func(i int) *faultinject.Set) []string {
	t.Helper()
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		opts := Options{Workers: 1}
		if faultsFor != nil {
			opts.Faults = faultsFor(i)
		}
		_, ts := newTestServer(t, opts)
		urls[i] = ts.URL
	}
	return urls
}

// runCampaignArtifacts POSTs a spec, waits for the terminal state, and
// returns every requested artifact keyed by name.
func runCampaignArtifacts(t *testing.T, base, spec string, names []string) map[string][]byte {
	t.Helper()
	st := postJSON(t, base+"/v1/campaigns", spec, http.StatusAccepted)
	done := waitState(t, base, st.ID)
	if done.State != jobDone {
		t.Fatalf("distributed campaign %s: %s", done.State, done.Error)
	}
	out := make(map[string][]byte, len(names))
	for _, name := range names {
		out[name] = fetch(t, base, st.ID, name)
	}
	return out
}

// TestDistributedCampaignByteIdentity is the distributed acceptance
// gate: the same spec run through a coordinator — for several worker
// counts and shard partitions — produces artifacts byte-identical to a
// single-process run.
func TestDistributedCampaignByteIdentity(t *testing.T) {
	_, local := newTestServer(t, Options{Workers: 1})
	want := runCampaignArtifacts(t, local.URL, distSpec, distArtifacts)

	cases := []struct{ workers, maxShards int }{
		{1, 1},
		{2, 2},
		{3, 5},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("workers=%d shards=%d", tc.workers, tc.maxShards), func(t *testing.T) {
			pool := newWorkerPool(t, tc.workers, nil)
			_, coord := newTestServer(t, Options{Workers: 1, WorkerURLs: pool, MaxShards: tc.maxShards})
			got := runCampaignArtifacts(t, coord.URL, distSpec, distArtifacts)
			for _, name := range distArtifacts {
				if string(got[name]) != string(want[name]) {
					t.Errorf("%s differs between local and distributed runs:\nlocal: %s\ndist:  %s",
						name, want[name], got[name])
				}
			}
		})
	}
}

// TestDistributedRedispatchByteIdentity kills one worker's execution
// path (the shard.run fault answers 500 to every shard) and checks that
// the coordinator redispatches onto the healthy worker, still producing
// byte-identical artifacts, with the retry counter reflecting the
// failures.
func TestDistributedRedispatchByteIdentity(t *testing.T) {
	_, local := newTestServer(t, Options{Workers: 1})
	want := runCampaignArtifacts(t, local.URL, distSpec, distArtifacts)

	pool := newWorkerPool(t, 2, func(i int) *faultinject.Set {
		if i == 0 {
			return mustFaults(t, "shard.run:error")
		}
		return nil
	})
	svc, coord := newTestServer(t, Options{Workers: 1, WorkerURLs: pool, MaxShards: 5})
	got := runCampaignArtifacts(t, coord.URL, distSpec, distArtifacts)
	for _, name := range distArtifacts {
		if string(got[name]) != string(want[name]) {
			t.Errorf("%s differs after worker failure + redispatch", name)
		}
	}
	svc.metrics.mu.Lock()
	retries := svc.metrics.shardRetries
	dispatched := len(svc.metrics.shardsDispatched)
	svc.metrics.mu.Unlock()
	if retries == 0 {
		t.Error("shardRetries = 0, want > 0: every shard on the broken worker must redispatch")
	}
	if dispatched != 2 {
		t.Errorf("shardsDispatched has %d workers, want both pool members attempted", dispatched)
	}
}

// TestDistributedShardCacheReuse re-runs a campaign with one experiment
// changed: the unchanged experiments' shards must be served from the
// coordinator's content-addressed shard cache, not redispatched.
func TestDistributedShardCacheReuse(t *testing.T) {
	pool := newWorkerPool(t, 1, nil)
	svc, coord := newTestServer(t, Options{Workers: 1, WorkerURLs: pool, MaxShards: 2})

	runCampaignArtifacts(t, coord.URL, distSpec, nil)
	svc.metrics.mu.Lock()
	coldHits := svc.metrics.shardCacheHits
	svc.metrics.mu.Unlock()
	if coldHits != 0 {
		t.Fatalf("cold run had %d shard cache hits, want 0", coldHits)
	}

	// Same campaign with E3 changed (trials 3 → 4): E1's and E5's shards
	// are content-identical and must hit; only E3's shards recompute.
	changed := strings.Replace(distSpec, `{"id":"E3","params":{"trials":3}}`, `{"id":"E3","params":{"trials":4}}`, 1)
	if changed == distSpec {
		t.Fatal("spec rewrite failed")
	}
	runCampaignArtifacts(t, coord.URL, changed, nil)
	svc.metrics.mu.Lock()
	warmHits := svc.metrics.shardCacheHits
	svc.metrics.mu.Unlock()
	// E1 plans one atomic shard; E5 plans two trial shards at MaxShards=2.
	if warmHits != 3 {
		t.Errorf("re-run with one changed experiment had %d shard cache hits, want 3 (E1 + E5's two shards)", warmHits)
	}
}

// TestShardEndpointRejectsBuildMismatch checks the homogeneous-build
// guard: a shard stamped with a different revision answers 409, never
// bytes from a divergent simulator.
func TestShardEndpointRejectsBuildMismatch(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	body := `{"revision":"somebody-else","go":"gofuture","shard":{"exp_index":0,"experiment":{"id":"E1"},"seed":1,"index":0,"count":1}}`
	resp, err := http.Post(ts.URL+"/v1/shards", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("mismatched build shard = %d, want 409", resp.StatusCode)
	}
}

// TestHealthzWorkerPoolQuorum checks the coordinator's readiness
// contract: a pool below quorum degrades /v1/healthz to 503 with the
// per-worker sweep in the body; restoring quorum restores readiness.
func TestHealthzWorkerPoolQuorum(t *testing.T) {
	live := newWorkerPool(t, 1, nil)[0]
	// The dead worker keeps its port for the whole test and answers 404
	// to the liveness probe; closing it would free the port for one of
	// the servers below to bind and answer 200.
	dead := httptest.NewServer(http.NotFoundHandler())
	t.Cleanup(dead.Close)

	// One live worker of one registered: quorum 1, ready.
	_, coord := newTestServer(t, Options{Workers: 1, WorkerURLs: []string{live}})
	resp, err := http.Get(coord.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy pool healthz = %d, want 200", resp.StatusCode)
	}

	// One live of two registered: quorum 2, degraded.
	_, degraded := newTestServer(t, Options{Workers: 1, WorkerURLs: []string{live, dead.URL}})
	resp, err = http.Get(degraded.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var body struct {
		Ready   bool `json:"ready"`
		Workers struct {
			Total     int `json:"total"`
			Reachable int `json:"reachable"`
			Quorum    int `json:"quorum"`
		} `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("below-quorum healthz = %d, want 503", resp.StatusCode)
	}
	if body.Ready || body.Workers.Reachable != 1 || body.Workers.Quorum != 2 {
		t.Fatalf("below-quorum body = %+v, want ready=false reachable=1 quorum=2", body)
	}
}

// TestWorkerRegistration joins a worker through POST /v1/workers and
// checks the pool listing; non-coordinators answer 404 on both.
func TestWorkerRegistration(t *testing.T) {
	worker := newWorkerPool(t, 1, nil)[0]
	svc, coord := newTestServer(t, Options{Workers: 1, Coordinator: true})

	// An empty pool can never meet quorum: not ready until a worker joins.
	if resp, err := http.Get(coord.URL + "/v1/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("empty-pool coordinator healthz = %d, want 503", resp.StatusCode)
		}
	}

	resp, err := http.Post(coord.URL+"/v1/workers", "application/json",
		strings.NewReader(fmt.Sprintf(`{"url":%q}`, worker)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register worker = %d, want 200", resp.StatusCode)
	}
	if got := svc.coord.WorkerURLs(); len(got) != 1 || got[0] != worker {
		t.Fatalf("pool after registration = %v, want [%s]", got, worker)
	}
	// Re-registration is idempotent.
	resp, err = http.Post(coord.URL+"/v1/workers", "application/json",
		strings.NewReader(fmt.Sprintf(`{"url":%q}`, worker)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := svc.coord.WorkerURLs(); len(got) != 1 {
		t.Fatalf("pool after duplicate registration = %v, want one entry", got)
	}

	// A plain server has no pool to join.
	_, plain := newTestServer(t, Options{Workers: 1})
	resp, err = http.Post(plain.URL+"/v1/workers", "application/json", strings.NewReader(`{"url":"http://x"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("register on non-coordinator = %d, want 404", resp.StatusCode)
	}
}

// postWithHeaders submits a body with extra headers and returns the
// response status plus decoded job status (when 202).
func postWithHeaders(t *testing.T, url, body string, headers map[string]string) (*http.Response, jobStatus) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp, st
}

// TestPriorityLaneOrdering queues a low-priority and then a
// high-priority job behind a saturated service and checks the
// high-priority one starts first — strict lane order, not FIFO.
func TestPriorityLaneOrdering(t *testing.T) {
	// Every job pays a 700ms injected latency: the slot-occupying job
	// holds the gate long enough for the probes to queue up behind the
	// held job, without depending on simulation speed.
	_, ts := newTestServer(t, Options{Workers: 1, Jobs: 1, QueueDepth: 8,
		Faults: mustFaults(t, "job.run:latency:delay=700ms")})

	// Occupy the single job slot, plus one normal job the dispatcher will
	// hold at the gate (the dispatcher always has one popped job in hand,
	// so lane order applies from the next job on).
	slow := `{"cores":16,"threads":4,"hts":1,"epochs":20,"seed":901,"workers":1}`
	held := `{"cores":16,"threads":4,"hts":1,"epochs":20,"seed":902,"workers":1}`
	low := `{"cores":16,"threads":4,"hts":1,"epochs":20,"seed":903,"workers":1}`
	high := `{"cores":16,"threads":4,"hts":1,"epochs":20,"seed":904,"workers":1}`

	slowSt := postJSON(t, ts.URL+"/v1/sims", slow, http.StatusAccepted)
	heldSt := postJSON(t, ts.URL+"/v1/sims", held, http.StatusAccepted)
	// Give the dispatcher time to pop the held job and block at the gate,
	// so both priority probes land in the queue proper.
	time.Sleep(100 * time.Millisecond)
	_, lowSt := postWithHeaders(t, ts.URL+"/v1/sims", low, map[string]string{"X-Priority": "low"})
	_, highSt := postWithHeaders(t, ts.URL+"/v1/sims", high, map[string]string{"X-Priority": "high"})

	if lowSt.Priority != "low" || highSt.Priority != "high" {
		t.Fatalf("statuses report priorities %q/%q, want low/high", lowSt.Priority, highSt.Priority)
	}
	for _, id := range []string{slowSt.ID, heldSt.ID, lowSt.ID, highSt.ID} {
		if st := waitState(t, ts.URL, id); st.State != jobDone {
			t.Fatalf("job %s: %s: %s", id, st.State, st.Error)
		}
	}
	lowDone, highDone := getJob(t, ts.URL, lowSt.ID), getJob(t, ts.URL, highSt.ID)
	if !highDone.Started.Before(*lowDone.Started) {
		t.Errorf("high-priority job started %v, after low-priority %v — lanes not honoured",
			highDone.Started, lowDone.Started)
	}
}

// TestPriorityHeaderValidation rejects unknown X-Priority values.
func TestPriorityHeaderValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, _ := postWithHeaders(t, ts.URL+"/v1/sims",
		`{"cores":16,"threads":4,"hts":1,"epochs":20,"seed":1,"workers":1}`,
		map[string]string{"X-Priority": "urgent"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown priority = %d, want 400", resp.StatusCode)
	}
}

// TestTenantQuota checks the per-tenant admission cap: a tenant at its
// quota sheds with 429 + Retry-After and a tenant-labeled counter, while
// other tenants are unaffected.
func TestTenantQuota(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 1, Jobs: 1, QueueDepth: 8, TenantQuota: 1})

	slow := `{"cores":256,"threads":16,"hts":8,"epochs":200,"seed":911,"workers":1}`
	resp, aliceSt := postWithHeaders(t, ts.URL+"/v1/sims", slow, map[string]string{"X-Tenant": "alice"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first alice job = %d, want 202", resp.StatusCode)
	}
	if aliceSt.Tenant != "alice" {
		t.Fatalf("status tenant = %q, want alice", aliceSt.Tenant)
	}

	second := `{"cores":16,"threads":4,"hts":1,"epochs":20,"seed":912,"workers":1}`
	resp, _ = postWithHeaders(t, ts.URL+"/v1/sims", second, map[string]string{"X-Tenant": "alice"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota alice job = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("quota shed is missing the Retry-After hint")
	}

	resp, bobSt := postWithHeaders(t, ts.URL+"/v1/sims", second, map[string]string{"X-Tenant": "bob"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bob's job = %d, want 202: quotas are per tenant", resp.StatusCode)
	}

	// The shed shows up tenant-labeled in the Prometheus exposition and in
	// the aggregate jobs_rejected.
	mresp, err := http.Get(ts.URL + "/v1/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if !strings.Contains(string(prom), `htserved_tenant_shed_total{tenant="alice"} 1`) {
		t.Error("Prometheus exposition is missing the alice tenant_shed sample")
	}
	svc.metrics.mu.Lock()
	rejected := svc.metrics.jobsRejected
	svc.metrics.mu.Unlock()
	if rejected != 1 {
		t.Errorf("jobsRejected = %d, want 1 (the quota shed counts as a rejection)", rejected)
	}

	for _, id := range []string{aliceSt.ID, bobSt.ID} {
		if st := waitState(t, ts.URL, id); st.State != jobDone {
			t.Fatalf("job %s: %s: %s", id, st.State, st.Error)
		}
	}
}

// TestLaneQueueStrictPriority unit-tests the queue itself: pops drain
// high before normal before low, FIFO within a lane, and a context
// cancellation unblocks an empty-queue pop.
func TestLaneQueueStrictPriority(t *testing.T) {
	q := newLaneQueue(8)
	mk := func(id string, lane int) *job { return &job{id: id, lane: lane} }
	for _, j := range []*job{
		mk("low-1", laneLow), mk("norm-1", laneNormal), mk("high-1", laneHigh),
		mk("norm-2", laneNormal), mk("high-2", laneHigh),
	} {
		if !q.push(j) {
			t.Fatalf("push %s rejected below depth", j.id)
		}
	}
	want := []string{"high-1", "high-2", "norm-1", "norm-2", "low-1"}
	for _, id := range want {
		if j := q.pop(context.Background()); j.id != id {
			t.Fatalf("pop = %s, want %s", j.id, id)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if j := q.pop(ctx); j != nil {
		t.Fatalf("pop on cancelled ctx = %v, want nil", j)
	}

	// The depth bound spans lanes.
	q2 := newLaneQueue(2)
	q2.push(mk("a", laneHigh))
	q2.push(mk("b", laneLow))
	if q2.push(mk("c", laneNormal)) {
		t.Fatal("push beyond depth accepted")
	}
}

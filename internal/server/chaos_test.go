package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/faultinject"
	"repro/internal/store"
)

// This file is the chaos suite: every fault point the service registers
// (job.run, queue.admit, cache.disk.read, cache.disk.write, sse.write)
// is driven through every relevant injection mode, and each test holds
// the same line — the fault costs at most its own job or request, the
// dispatcher and every unaffected job keep working, and the artifacts
// that do come out stay byte-identical to what `htcampaign run` writes.

// mustFaults parses a fault spec or fails the test.
func mustFaults(t *testing.T, spec string) *faultinject.Set {
	t.Helper()
	fs, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// metricsSnapshot fetches /v1/metrics as a generic map.
func metricsSnapshot(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// cliArtifacts runs the golden testSpec through campaign.Run and returns
// the artifact bytes the service must match.
func cliArtifacts(t *testing.T) map[string][]byte {
	t.Helper()
	spec, err := campaign.ParseSpec([]byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, _, err := campaign.Run(context.Background(), spec, dir, 1, campaign.Progress{}); err != nil {
		t.Fatal(err)
	}
	want := make(map[string][]byte)
	for _, name := range []string{"e1.json", "e1.csv", "e3.json", "e3.csv"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want[name] = b
	}
	return want
}

// assertGoldenArtifacts fetches every golden artifact from a finished
// job and requires byte identity with the CLI output.
func assertGoldenArtifacts(t *testing.T, base, id string, want map[string][]byte) {
	t.Helper()
	for name, wantBytes := range want {
		if got := fetch(t, base, id, name); !bytes.Equal(got, wantBytes) {
			t.Errorf("%s differs from htcampaign run output under fault injection", name)
		}
	}
}

// TestChaosPanicInJobIsIsolated injects a panic into the first job's
// execution path: that job fails with a structured panic error, the
// recovery is counted, and the dispatcher goes on to run both a
// different spec and a clean retry of the panicked spec — with artifacts
// byte-identical to the CLI.
func TestChaosPanicInJobIsIsolated(t *testing.T) {
	want := cliArtifacts(t)
	_, ts := newTestServer(t, Options{
		Workers: 1,
		Faults:  mustFaults(t, "job.run:panic:times=1"),
	})

	victim := `{"name":"victim","seed":3,"experiments":[{"id":"E2"}]}`
	st := postJSON(t, ts.URL+"/v1/campaigns", victim, http.StatusAccepted)
	done := waitState(t, ts.URL, st.ID)
	if done.State != jobFailed {
		t.Fatalf("panicked job finished %s, want failed", done.State)
	}
	if !strings.Contains(done.Error, "panic in job") || !strings.Contains(done.Error, "injected panic at job.run") {
		t.Fatalf("panicked job error %q lacks the structured panic report", done.Error)
	}

	// The dispatcher survived: an unrelated spec completes and matches
	// the CLI byte-for-byte.
	st2 := postJSON(t, ts.URL+"/v1/campaigns", testSpec, http.StatusAccepted)
	if done := waitState(t, ts.URL, st2.ID); done.State != jobDone {
		t.Fatalf("follow-up job finished %s (%s), want done", done.State, done.Error)
	}
	assertGoldenArtifacts(t, ts.URL, st2.ID, want)

	// The panicked payload itself reruns clean once the rule is spent —
	// a failed job must never poison its cache key.
	st3 := postJSON(t, ts.URL+"/v1/campaigns", victim, http.StatusAccepted)
	if done := waitState(t, ts.URL, st3.ID); done.State != jobDone {
		t.Fatalf("retry of panicked spec finished %s (%s), want done", done.State, done.Error)
	}

	m := metricsSnapshot(t, ts.URL)
	if got := m["panics_recovered"].(float64); got != 1 {
		t.Errorf("panics_recovered = %v, want 1", got)
	}
	if got := m["faults_injected"].(float64); got < 1 {
		t.Errorf("faults_injected = %v, want >= 1", got)
	}
}

// TestChaosErrorAndLatencyModes drives error injection on job.run (every
// second job fails cleanly) and latency injection on queue.admit
// (submissions slow down but succeed) at the same time.
func TestChaosErrorAndLatencyModes(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Workers: 1,
		Faults:  mustFaults(t, "job.run:error:every=2;queue.admit:latency:delay=20ms"),
	})
	specs := []string{
		`{"name":"a","seed":11,"experiments":[{"id":"E2"}]}`,
		`{"name":"b","seed":12,"experiments":[{"id":"E2"}]}`,
		`{"name":"c","seed":13,"experiments":[{"id":"E2"}]}`,
		`{"name":"d","seed":14,"experiments":[{"id":"E2"}]}`,
	}
	var states []jobState
	for _, spec := range specs {
		st := postJSON(t, ts.URL+"/v1/campaigns", spec, http.StatusAccepted)
		done := waitState(t, ts.URL, st.ID)
		states = append(states, done.State)
		if done.State == jobFailed && !strings.Contains(done.Error, "injected error at job.run") {
			t.Fatalf("failed job error %q is not the injected fault", done.Error)
		}
	}
	// every=2: jobs 2 and 4 hit the fault, 1 and 3 run through.
	wantStates := []jobState{jobDone, jobFailed, jobDone, jobFailed}
	for i, want := range wantStates {
		if states[i] != want {
			t.Fatalf("job states %v, want %v (error cadence every=2)", states, wantStates)
		}
	}
}

// TestChaosHandlerPanicIsContained injects a panic at queue.admit: the
// submission gets a 500 (not a dropped connection), the recovery is
// counted, and the very next submission succeeds.
func TestChaosHandlerPanicIsContained(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Workers: 1,
		Faults:  mustFaults(t, "queue.admit:panic:times=1"),
	})
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", strings.NewReader(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked submission = %d (%s), want 500", resp.StatusCode, b)
	}
	if !strings.Contains(string(b), "recovered") {
		t.Fatalf("500 body %q does not mark the recovery", b)
	}
	st := postJSON(t, ts.URL+"/v1/campaigns", testSpec, http.StatusAccepted)
	if done := waitState(t, ts.URL, st.ID); done.State != jobDone {
		t.Fatalf("post-panic submission finished %s (%s), want done", done.State, done.Error)
	}
	if got := metricsSnapshot(t, ts.URL)["panics_recovered"].(float64); got != 1 {
		t.Errorf("panics_recovered = %v, want 1", got)
	}
}

// TestChaosCorruptDiskEntryQuarantined corrupts a spilled cache entry on
// disk by hand: the next server over the same directory detects the
// checksum mismatch, quarantines the entry instead of serving it (or
// erroring), recomputes, and the recomputed artifacts match the CLI.
func TestChaosCorruptDiskEntryQuarantined(t *testing.T) {
	want := cliArtifacts(t)
	cacheDir := t.TempDir()
	_, ts := newTestServer(t, Options{Workers: 1, CacheDir: cacheDir})
	st := postJSON(t, ts.URL+"/v1/campaigns", testSpec, http.StatusAccepted)
	if done := waitState(t, ts.URL, st.ID); done.State != jobDone {
		t.Fatalf("seed job finished %s (%s)", done.State, done.Error)
	}

	// Flip bytes in one artifact of the (single) spilled entry.
	entries, err := os.ReadDir(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for _, e := range entries {
		if !e.IsDir() || e.Name() == store.QuarantineDir {
			continue
		}
		target := filepath.Join(cacheDir, e.Name(), "e3.csv")
		if err := os.WriteFile(target, []byte("garbage,from,a,dying,disk\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted = true
	}
	if !corrupted {
		t.Fatal("no spilled cache entry found to corrupt")
	}

	// A fresh server over the same directory must refuse the entry.
	_, ts2 := newTestServer(t, Options{Workers: 1, CacheDir: cacheDir})
	st2 := postJSON(t, ts2.URL+"/v1/campaigns", testSpec, http.StatusAccepted)
	if st2.Cache == "disk" {
		t.Fatal("corrupt disk entry was served as a cache hit")
	}
	if done := waitState(t, ts2.URL, st2.ID); done.State != jobDone {
		t.Fatalf("recompute job finished %s (%s), want done", done.State, done.Error)
	}
	assertGoldenArtifacts(t, ts2.URL, st2.ID, want)
	if got := metricsSnapshot(t, ts2.URL)["cache_corrupt_quarantined"].(float64); got < 1 {
		t.Errorf("cache_corrupt_quarantined = %v, want >= 1", got)
	}
	if qs, err := os.ReadDir(filepath.Join(cacheDir, store.QuarantineDir)); err != nil || len(qs) == 0 {
		t.Errorf("quarantine directory missing or empty (err %v)", err)
	}
	// The recomputed entry is a healthy disk hit for the next server.
	_, ts3 := newTestServer(t, Options{Workers: 1, CacheDir: cacheDir})
	st3 := postJSON(t, ts3.URL+"/v1/campaigns", testSpec, http.StatusAccepted)
	if st3.State != jobDone || st3.Cache != "disk" {
		t.Fatalf("post-recompute submission state %s cache %q, want done from disk", st3.State, st3.Cache)
	}
}

// TestChaosPartialWriteCaughtByChecksums injects torn writes into the
// spill path: the entry lands truncated (the rename still happens), and
// the next server's checksum verification quarantines it and recomputes
// instead of serving truncated artifacts.
func TestChaosPartialWriteCaughtByChecksums(t *testing.T) {
	want := cliArtifacts(t)
	cacheDir := t.TempDir()
	_, ts := newTestServer(t, Options{
		Workers:  1,
		CacheDir: cacheDir,
		Faults:   mustFaults(t, "cache.disk.write:partial-write:bytes=16"),
	})
	st := postJSON(t, ts.URL+"/v1/campaigns", testSpec, http.StatusAccepted)
	if done := waitState(t, ts.URL, st.ID); done.State != jobDone {
		t.Fatalf("job under torn writes finished %s (%s), want done (spill faults never fail jobs)", done.State, done.Error)
	}
	// The job itself still serves correct artifacts from memory.
	assertGoldenArtifacts(t, ts.URL, st.ID, want)

	// A fresh, fault-free server over the torn directory: quarantine and
	// recompute, never a truncated artifact and never a 500.
	_, ts2 := newTestServer(t, Options{Workers: 1, CacheDir: cacheDir})
	st2 := postJSON(t, ts2.URL+"/v1/campaigns", testSpec, http.StatusAccepted)
	if st2.Cache == "disk" {
		t.Fatal("torn disk entry was served as a cache hit")
	}
	if done := waitState(t, ts2.URL, st2.ID); done.State != jobDone {
		t.Fatalf("recompute finished %s (%s)", done.State, done.Error)
	}
	assertGoldenArtifacts(t, ts2.URL, st2.ID, want)
	if got := metricsSnapshot(t, ts2.URL)["cache_corrupt_quarantined"].(float64); got < 1 {
		t.Errorf("cache_corrupt_quarantined = %v, want >= 1", got)
	}
}

// TestChaosDiskReadErrorsDegradeToMisses makes every disk-tier read fail:
// the service answers everything by recomputing — no 500s, no hangs.
func TestChaosDiskReadErrorsDegradeToMisses(t *testing.T) {
	cacheDir := t.TempDir()
	// Seed the disk tier with a healthy entry first.
	_, ts := newTestServer(t, Options{Workers: 1, CacheDir: cacheDir})
	st := postJSON(t, ts.URL+"/v1/campaigns", testSpec, http.StatusAccepted)
	if done := waitState(t, ts.URL, st.ID); done.State != jobDone {
		t.Fatalf("seed job finished %s (%s)", done.State, done.Error)
	}

	_, ts2 := newTestServer(t, Options{
		Workers:  1,
		CacheDir: cacheDir,
		Faults:   mustFaults(t, "cache.disk.read:error"),
	})
	st2 := postJSON(t, ts2.URL+"/v1/campaigns", testSpec, http.StatusAccepted)
	if st2.Cache == "disk" {
		t.Fatal("failing disk tier still reported a hit")
	}
	if done := waitState(t, ts2.URL, st2.ID); done.State != jobDone {
		t.Fatalf("job with failing disk reads finished %s (%s), want done", done.State, done.Error)
	}
}

// TestChaosSSEWriteFaultKillsOnlyTheStream severs an SSE stream with an
// injected write error, then reconnects with Last-Event-ID and requires
// the replay to continue exactly where the first stream stopped — while
// the job itself runs to completion untouched.
func TestChaosSSEWriteFaultKillsOnlyTheStream(t *testing.T) {
	_, ts := newTestServer(t, Options{
		Workers: 1,
		Faults:  mustFaults(t, "sse.write:error:after=4:times=1"),
	})
	body := `{"cores":64,"threads":4,"hts":4,"epochs":6,"seed":7,"workers":1}`
	st := postJSON(t, ts.URL+"/v1/sims", body, http.StatusAccepted)
	if done := waitState(t, ts.URL, st.ID); done.State != jobDone {
		t.Fatalf("job finished %s (%s), want done", done.State, done.Error)
	}

	// First stream: replay dies at the injected fault after 4 events.
	firstIDs := readSSEIDs(t, ts.URL, st.ID, -1)
	if len(firstIDs) == 0 {
		t.Fatal("first stream delivered nothing")
	}
	all := readSSEIDs(t, ts.URL, st.ID, -1) // fault spent: full replay
	if len(all) <= len(firstIDs) {
		t.Fatalf("severed stream saw %d events, full replay %d — fault did not sever", len(firstIDs), len(all))
	}

	// Resume from the last id the severed stream saw: the events must be
	// exactly the remainder, no duplicates and no holes.
	last := firstIDs[len(firstIDs)-1]
	resumed := readSSEIDs(t, ts.URL, st.ID, last)
	if got, want := len(firstIDs)+len(resumed), len(all); got != want {
		t.Fatalf("severed (%d) + resumed (%d) = %d events, want %d", len(firstIDs), len(resumed), got, want)
	}
	if len(resumed) == 0 || resumed[0] != last+1 {
		t.Fatalf("resume after id %d started at %v, want %d", last, resumed, last+1)
	}
}

// readSSEIDs consumes a job's whole SSE stream (optionally resuming
// after a Last-Event-ID) and returns the event ids received, in order.
func readSSEIDs(t *testing.T, base, id string, after int) []int {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/jobs/%s/events", base, id), nil)
	if err != nil {
		t.Fatal(err)
	}
	if after >= 0 {
		req.Header.Set("Last-Event-ID", fmt.Sprint(after))
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ids []int
	for _, line := range strings.Split(readAll(t, resp.Body), "\n") {
		if v, ok := strings.CutPrefix(line, "id: "); ok {
			var n int
			fmt.Sscanf(v, "%d", &n)
			ids = append(ids, n)
		}
	}
	return ids
}

// readAll drains a reader, tolerating the abrupt close an injected
// sse.write fault causes.
func readAll(t *testing.T, r io.Reader) string {
	t.Helper()
	b, err := io.ReadAll(r)
	if err != nil && !strings.Contains(err.Error(), "EOF") {
		// An injected severance surfaces as an unexpected EOF — that is the
		// point; anything else is a real failure.
		t.Logf("stream read ended with %v", err)
	}
	return string(b)
}

// TestChaosSingleFlightCoalescesStampede submits the same expensive
// payload twice while the first copy is still in flight: the second
// becomes a follower (no queue slot, no second simulation), finishes
// with the leader's result, and the dedup is counted.
func TestChaosSingleFlightCoalescesStampede(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Jobs: 1, QueueDepth: 4})
	slow := `{"cores":256,"threads":16,"hts":8,"epochs":60,"seed":301,"workers":1}`
	leader := postJSON(t, ts.URL+"/v1/sims", slow, http.StatusAccepted)
	follower := postJSON(t, ts.URL+"/v1/sims", slow, http.StatusAccepted)

	ldone := waitState(t, ts.URL, leader.ID)
	fdone := waitState(t, ts.URL, follower.ID)
	if ldone.State != jobDone {
		t.Fatalf("leader finished %s (%s)", ldone.State, ldone.Error)
	}
	if fdone.State != jobDone || fdone.Cache != "single-flight" {
		t.Fatalf("follower state %s cache %q, want done via single-flight", fdone.State, fdone.Cache)
	}
	if got, want := fetch(t, ts.URL, follower.ID, "run.csv"), fetch(t, ts.URL, leader.ID, "run.csv"); !bytes.Equal(got, want) {
		t.Error("follower artifact differs from leader")
	}
	m := metricsSnapshot(t, ts.URL)
	if got := m["single_flight_dedup"].(float64); got != 1 {
		t.Errorf("single_flight_dedup = %v, want 1", got)
	}
	// Exactly one simulation ran.
	if got := m["jobs_started"].(float64); got != 1 {
		t.Errorf("jobs_started = %v, want 1 (the follower must not re-simulate)", got)
	}
}

// TestJobTimeoutFailsOnlyTheSlowJob runs a deliberately long simulation
// under a tight --job-timeout: it fails with a structured deadline error
// and is counted, while a quick job on the same server completes. The
// slow job asks for 5000 epochs because a 500-epoch run, with quiet NoC
// cycles skipped, sometimes finished inside the 300 ms budget.
func TestJobTimeoutFailsOnlyTheSlowJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, JobTimeout: 300 * time.Millisecond})
	slow := `{"cores":256,"threads":16,"hts":8,"epochs":5000,"seed":401,"workers":1}`
	st := postJSON(t, ts.URL+"/v1/sims", slow, http.StatusAccepted)
	done := waitState(t, ts.URL, st.ID)
	if done.State != jobFailed || !strings.Contains(done.Error, "deadline") {
		t.Fatalf("slow job finished %s (%q), want failed with a deadline error", done.State, done.Error)
	}
	quick := `{"cores":64,"threads":4,"hts":4,"epochs":6,"seed":402,"workers":1}`
	st2 := postJSON(t, ts.URL+"/v1/sims", quick, http.StatusAccepted)
	if done := waitState(t, ts.URL, st2.ID); done.State != jobDone {
		t.Fatalf("quick job finished %s (%s), want done", done.State, done.Error)
	}
	if got := metricsSnapshot(t, ts.URL)["jobs_timed_out"].(float64); got != 1 {
		t.Errorf("jobs_timed_out = %v, want 1", got)
	}
}

// TestLoadSheddingRetryAfterAndReadiness saturates the queue and
// verifies the shedding contract: 429 carries a Retry-After hint and a
// counted shed, /v1/healthz degrades to 503 with live=true ready=false
// (and ?probe=live stays 200), and everything recovers after the backlog
// drains.
func TestLoadSheddingRetryAfterAndReadiness(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Jobs: 1, QueueDepth: 1})
	slow := `{"cores":256,"threads":16,"hts":8,"epochs":200,"seed":%d,"workers":1}`
	var ids []string
	st1 := postJSON(t, ts.URL+"/v1/sims", fmt.Sprintf(slow, 501), http.StatusAccepted)
	ids = append(ids, st1.ID)

	// Distinct payloads (distinct seeds) so single-flight cannot coalesce
	// them; fill until the queue sheds.
	deadline := time.Now().Add(10 * time.Second)
	seed := 502
	shed := func() *http.Response {
		for ; time.Now().Before(deadline); seed++ {
			resp, err := http.Post(ts.URL+"/v1/sims", "application/json",
				strings.NewReader(fmt.Sprintf(slow, seed)))
			if err != nil {
				t.Fatal(err)
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusTooManyRequests:
				return resp
			case http.StatusAccepted:
				var st jobStatus
				if err := json.Unmarshal(b, &st); err != nil {
					t.Fatal(err)
				}
				ids = append(ids, st.ID)
			default:
				t.Fatalf("POST = %d; body: %s", resp.StatusCode, b)
			}
		}
		return nil
	}

	// Degraded: alive but not ready. The dispatcher takes the last queued
	// job off the queue before it waits for the job slot, so the queue can
	// regain room between a 429 and the health read, and readiness then
	// rightly answers 200: fill the queue again and re-read. With one job
	// running and one held by the dispatcher, a full queue stays full, so
	// this ends by the second round.
	var (
		resp *http.Response
		err  error
		hz   struct {
			Status string `json:"status"`
			Live   bool   `json:"live"`
			Ready  bool   `json:"ready"`
		}
	)
	for {
		shedResp := shed()
		if shedResp == nil {
			t.Fatal("queue never shed")
		}
		if ra := shedResp.Header.Get("Retry-After"); ra == "" {
			t.Error("429 carries no Retry-After hint")
		}
		if resp, err = http.Get(ts.URL + "/v1/healthz"); err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&hz)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !time.Now().Before(deadline) {
			break
		}
	}
	if resp.StatusCode != http.StatusServiceUnavailable || !hz.Live || hz.Ready || hz.Status != "degraded" {
		t.Fatalf("saturated healthz = %d %+v, want 503 live-but-not-ready degraded", resp.StatusCode, hz)
	}
	if resp, err = http.Get(ts.URL + "/v1/healthz?probe=live"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("liveness probe on a saturated server = %d, want 200", resp.StatusCode)
	}
	if got := metricsSnapshot(t, ts.URL)["requests_shed"].(float64); got < 1 {
		t.Errorf("requests_shed = %v, want >= 1", got)
	}

	// Drain the backlog; readiness returns.
	for _, id := range ids {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	for _, id := range ids {
		waitState(t, ts.URL, id)
	}
	if resp, err = http.Get(ts.URL + "/v1/healthz"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drained healthz = %d, want 200", resp.StatusCode)
	}
}

// TestSubscribeToSealedLogAllocatesOnlyItsReplay pins late subscriptions
// to a finished job: they get the replay and an already closed channel,
// and allocate the replay alone — no per-subscriber event buffer.
func TestSubscribeToSealedLogAllocatesOnlyItsReplay(t *testing.T) {
	l := newEventLog(1024, nil)
	for i := 0; i < 3; i++ {
		l.publish("epoch", map[string]int{"n": i})
	}
	l.close()
	replay, ch, cancel := l.subscribe(0)
	cancel()
	if len(replay) != 2 || replay[0].id != 1 || replay[1].id != 2 {
		t.Fatalf("replay after id 0 = %+v, want events 1 and 2", replay)
	}
	if _, open := <-ch; open {
		t.Fatal("a sealed log's subscription channel is open")
	}
	for _, tc := range []struct {
		after, allocs int
	}{{-1, 1}, {2, 0}} {
		if n := testing.AllocsPerRun(100, func() {
			_, _, cancel := l.subscribe(tc.after)
			cancel()
		}); n != float64(tc.allocs) {
			t.Errorf("subscribing after id %d to a sealed log allocates %v times, want %d", tc.after, n, tc.allocs)
		}
	}
}

// TestSSEDropOldestBuffersSlowSubscriber pins the drop-oldest policy at
// the eventLog level: a subscriber with a tiny buffer that never drains
// keeps the newest events, loses the oldest, stays connected, and every
// loss is counted.
func TestSSEDropOldestBuffersSlowSubscriber(t *testing.T) {
	var dropped atomic.Int64
	l := newEventLog(2, &dropped)
	_, ch, cancel := l.subscribe(-1)
	defer cancel()
	for i := 0; i < 10; i++ {
		l.publish("epoch", map[string]int{"n": i})
	}
	if l.subscribers() != 1 {
		t.Fatalf("slow subscriber was disconnected (subscribers %d)", l.subscribers())
	}
	// Ten published into a buffer of two: eight evicted, newest two left.
	if got := dropped.Load(); got != 8 {
		t.Fatalf("dropped = %d, want 8", got)
	}
	var got []int
	for len(ch) > 0 {
		ev := <-ch
		got = append(got, ev.id)
	}
	if len(got) != 2 || got[0] != 8 || got[1] != 9 {
		t.Fatalf("buffered ids %v, want the newest [8 9]", got)
	}
	// The replay buffer still holds everything: a reconnect with
	// Last-Event-ID recovers the gap the drops created.
	replay, _, cancel2 := l.subscribe(got[0] - 1)
	defer cancel2()
	if len(replay) != 2 || replay[0].id != 8 {
		t.Fatalf("resume replay %d events from id %d, want 2 from 8", len(replay), replay[0].id)
	}
	full, _, cancel3 := l.subscribe(-1)
	defer cancel3()
	if len(full) != 10 {
		t.Fatalf("full replay %d events, want 10", len(full))
	}
}

// TestSSESubscriberSlotsReleasedOnDisconnect is the leak test: 100
// subscribe/disconnect cycles against a running job must leave exactly
// zero registered subscribers.
func TestSSESubscriberSlotsReleasedOnDisconnect(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 1, Jobs: 1, QueueDepth: 2})
	slow := `{"cores":256,"threads":16,"hts":8,"epochs":200,"seed":601,"workers":1}`
	st := postJSON(t, ts.URL+"/v1/sims", slow, http.StatusAccepted)
	j := svc.jobs.lookup(st.ID)
	if j == nil {
		t.Fatal("job not found")
	}

	var wg sync.WaitGroup
	for i := 0; i < 100; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet,
				fmt.Sprintf("%s/v1/jobs/%s/events", ts.URL, st.ID), nil)
			if err != nil {
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				return
			}
			// Read a little, then drop the connection mid-stream.
			buf := make([]byte, 64)
			resp.Body.Read(buf)
			cancel()
			resp.Body.Close()
		}()
	}
	wg.Wait()

	// Handler exits race the disconnects slightly; poll to zero.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if j.events.subscribers() == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := j.events.subscribers(); n != 0 {
		t.Fatalf("%d subscriber slots leaked after 100 disconnects", n)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, ts.URL, st.ID)
}

// TestDeleteRacesJobCompletion fires DELETE while quick jobs are
// finishing: whatever interleaving happens, the job lands in exactly one
// terminal state (done or cancelled, never a double transition), repeat
// DELETEs conflict cleanly, and the state stays put afterwards. Run
// under -race in CI, this is the cancel-after-done / done-after-cancel
// audit.
func TestDeleteRacesJobCompletion(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Jobs: 1, QueueDepth: 4})
	quick := `{"cores":64,"threads":4,"hts":4,"epochs":6,"seed":%d,"workers":1}`
	for i := 0; i < 20; i++ {
		st := postJSON(t, ts.URL+"/v1/sims", fmt.Sprintf(quick, 700+i), http.StatusAccepted)
		// Race the DELETE against the run: no sleep, straight away.
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusConflict {
			t.Fatalf("racing DELETE = %d, want 202 or 409", resp.StatusCode)
		}
		done := waitState(t, ts.URL, st.ID)
		if done.State != jobDone && done.State != jobCancelled {
			t.Fatalf("raced job landed in %s (%s), want done or cancelled", done.State, done.Error)
		}
		// Cancel-after-done (and double-cancel) is a clean conflict no-op:
		// the terminal state never changes.
		req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Fatalf("DELETE on terminal job = %d, want 409", resp.StatusCode)
		}
		if again := getJob(t, ts.URL, st.ID); again.State != done.State {
			t.Fatalf("terminal state flipped %s -> %s after late DELETE", done.State, again.State)
		}
	}
}

// TestChaosEveryPointActive is the acceptance sweep: faults armed at
// every registered point at once, two specs driven through the service —
// the panicked job fails alone, everything else completes, and the final
// artifacts are byte-identical to htcampaign run.
func TestChaosEveryPointActive(t *testing.T) {
	want := cliArtifacts(t)
	cacheDir := t.TempDir()
	_, ts := newTestServer(t, Options{
		Workers:  1,
		CacheDir: cacheDir,
		Faults: mustFaults(t, strings.Join([]string{
			"seed=7",
			"job.run:panic:times=1",
			"queue.admit:latency:delay=10ms",
			"cache.disk.read:error:times=1",
			"cache.disk.write:partial-write:bytes=16:times=3",
			"sse.write:error:times=1",
		}, ";")),
	})

	victim := `{"name":"victim","seed":9,"experiments":[{"id":"E2"}]}`
	st := postJSON(t, ts.URL+"/v1/campaigns", victim, http.StatusAccepted)
	if done := waitState(t, ts.URL, st.ID); done.State != jobFailed {
		t.Fatalf("victim finished %s, want failed (injected panic)", done.State)
	}

	st2 := postJSON(t, ts.URL+"/v1/campaigns", testSpec, http.StatusAccepted)
	if done := waitState(t, ts.URL, st2.ID); done.State != jobDone {
		t.Fatalf("golden job finished %s (%s), want done", done.State, done.Error)
	}
	assertGoldenArtifacts(t, ts.URL, st2.ID, want)
	// Its SSE stream is reachable even with a write fault armed.
	readSSEIDs(t, ts.URL, st2.ID, -1)

	m := metricsSnapshot(t, ts.URL)
	if got := m["panics_recovered"].(float64); got < 1 {
		t.Errorf("panics_recovered = %v, want >= 1", got)
	}
	if got := m["faults_injected"].(float64); got < 3 {
		t.Errorf("faults_injected = %v, want >= 3 (panic + latency + disk)", got)
	}

	// The torn spill from this run must never be trusted by a successor.
	_, ts2 := newTestServer(t, Options{Workers: 1, CacheDir: cacheDir})
	st3 := postJSON(t, ts2.URL+"/v1/campaigns", testSpec, http.StatusAccepted)
	if st3.Cache == "disk" {
		t.Fatal("torn entry served from disk")
	}
	if done := waitState(t, ts2.URL, st3.ID); done.State != jobDone {
		t.Fatalf("recompute finished %s (%s)", done.State, done.Error)
	}
	assertGoldenArtifacts(t, ts2.URL, st3.ID, want)
}

package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/results"
	"repro/pkg/htsim"
)

// testSpec mirrors the golden campaign of internal/campaign: cheap enough
// for the suite, covering a static table and an analytic experiment.
const testSpec = `{"name":"golden","seed":1,"experiments":[{"id":"E1","params":{"size":64}},{"id":"E3","params":{"trials":3}}]}`

// newTestServer starts a service over httptest and tears it down with the
// test.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	svc, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

// postJSON submits a body and decodes the job status it returns.
func postJSON(t *testing.T, url, body string, wantStatus int) jobStatus {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s = %d, want %d; body: %s", url, resp.StatusCode, wantStatus, b)
	}
	var st jobStatus
	if wantStatus == http.StatusAccepted {
		if err := json.Unmarshal(b, &st); err != nil {
			t.Fatalf("decode job status: %v; body: %s", err, b)
		}
	}
	return st
}

// getJob fetches one job's status.
func getJob(t *testing.T, base, id string) jobStatus {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitState polls until the job reaches a terminal state and returns it.
func waitState(t *testing.T, base, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		st := getJob(t, base, id)
		switch st.State {
		case jobDone, jobFailed, jobCancelled:
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish in time", id)
	return jobStatus{}
}

// fetch returns one artifact's bytes.
func fetch(t *testing.T, base, id, name string) []byte {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/artifacts/%s", base, id, name))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET artifact %s = %d; body: %s", name, resp.StatusCode, b)
	}
	return b
}

// TestCampaignEndToEndMatchesCLIArtifacts is the acceptance gate: a spec
// POSTed to the service produces artifacts byte-identical to the files
// `htcampaign run` writes for the same spec, and a second identical POST
// is served from the cache without re-simulation.
func TestCampaignEndToEndMatchesCLIArtifacts(t *testing.T) {
	// The CLI path: campaign.Run into a directory.
	spec, err := campaign.ParseSpec([]byte(testSpec))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, _, err := campaign.Run(context.Background(), spec, dir, 1, campaign.Progress{}); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, Options{Workers: 1})
	st := postJSON(t, ts.URL+"/v1/campaigns", testSpec, http.StatusAccepted)
	done := waitState(t, ts.URL, st.ID)
	if done.State != jobDone {
		t.Fatalf("job finished %s (%s), want done", done.State, done.Error)
	}
	if done.Cache != "" {
		t.Fatalf("first submission served from cache %q, want a real run", done.Cache)
	}
	for _, name := range []string{"e1.json", "e1.csv", "e3.json", "e3.csv"} {
		want, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		got := fetch(t, ts.URL, st.ID, name)
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs between service and htcampaign run:\nservice:\n%s\ncli:\n%s", name, got, want)
		}
	}
	// The text rendering serves through the same path.
	if txt := fetch(t, ts.URL, st.ID, "e1.txt"); !bytes.Contains(txt, []byte("Table I system configuration")) {
		t.Errorf("e1.txt missing title: %s", txt)
	}

	// Second identical submission: instant cache hit, identical bytes.
	st2 := postJSON(t, ts.URL+"/v1/campaigns", testSpec, http.StatusAccepted)
	if st2.State != jobDone || st2.Cache != "memory" {
		t.Fatalf("second submission state %s cache %q, want done from memory", st2.State, st2.Cache)
	}
	if got, want := fetch(t, ts.URL, st2.ID, "e3.csv"), fetch(t, ts.URL, st.ID, "e3.csv"); !bytes.Equal(got, want) {
		t.Error("cached artifact differs from the original")
	}

	var metrics map[string]any
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	if hits := metrics["cache_hits"].(float64); hits != 1 {
		t.Errorf("cache_hits = %v, want 1", hits)
	}
	if done := metrics["jobs_done"].(float64); done != 1 {
		t.Errorf("jobs_done = %v, want 1 (the cache hit must not re-run)", done)
	}
}

// TestSimJobStreamsMonotonicEpochs submits a single-sim job and asserts
// the SSE stream delivers strictly increasing epoch samples and a
// terminal done event.
func TestSimJobStreamsMonotonicEpochs(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	body := `{"cores":64,"threads":4,"hts":4,"epochs":6,"seed":7,"workers":1}`
	st := postJSON(t, ts.URL+"/v1/sims", body, http.StatusAccepted)

	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events", ts.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	var epochs []int
	final := ""
	sc := bufio.NewScanner(resp.Body)
	event, data := "", ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "":
			switch event {
			case "epoch":
				var ev epochEvent
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("bad epoch payload %q: %v", data, err)
				}
				epochs = append(epochs, ev.Epoch)
			case "state":
				var ev stateEvent
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("bad state payload %q: %v", data, err)
				}
				final = string(ev.State)
			}
		}
	}
	if final != "done" {
		t.Fatalf("final streamed state %q, want done", final)
	}
	if len(epochs) != 6 {
		t.Fatalf("streamed %d epoch samples (%v), want 6 (attacked run only)", len(epochs), epochs)
	}
	for i, e := range epochs {
		if e != i {
			t.Fatalf("epoch samples not monotonically increasing: %v", epochs)
		}
	}
	if st := waitState(t, ts.URL, st.ID); st.Epochs != 6 {
		t.Errorf("job counted %d epochs, want 6", st.Epochs)
	}
}

// TestQueueBackpressureAndCancellation fills the single-job runner and
// the one-deep queue, expects 429 on the next submission, then cancels
// both jobs through DELETE.
func TestQueueBackpressureAndCancellation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, Jobs: 1, QueueDepth: 1})
	// Cycle-simulated sims long enough to still be running while the
	// queue fills behind them (cancellation below ends them early).
	slow := `{"cores":256,"threads":16,"hts":8,"epochs":200,"seed":%d,"workers":1}`
	first := postJSON(t, ts.URL+"/v1/sims", fmt.Sprintf(slow, 101), http.StatusAccepted)
	second := postJSON(t, ts.URL+"/v1/sims", fmt.Sprintf(slow, 102), http.StatusAccepted)
	// Give the dispatcher a moment to pop the first job off the queue,
	// then fill the freed slot so the next submission overflows.
	deadline := time.Now().Add(10 * time.Second)
	var third jobStatus
	submitted := false
	seed := 103
	for time.Now().Before(deadline) && !submitted {
		seed++
		resp, err := http.Post(ts.URL+"/v1/sims", "application/json",
			strings.NewReader(fmt.Sprintf(slow, seed)))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			submitted = true
		case http.StatusAccepted:
			// The queue had room (dispatcher drained it); this job now
			// occupies it — the next loop iteration must get 429.
			if err := json.Unmarshal(b, &third); err != nil {
				t.Fatal(err)
			}
		default:
			t.Fatalf("POST = %d; body: %s", resp.StatusCode, b)
		}
	}
	if !submitted {
		t.Fatal("queue never reported backpressure")
	}

	ids := []string{first.ID, second.ID}
	if third.ID != "" {
		ids = append(ids, third.ID)
	}
	for _, id := range ids {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("DELETE %s = %d", id, resp.StatusCode)
		}
	}
	for _, id := range ids {
		if st := waitState(t, ts.URL, id); st.State != jobCancelled {
			t.Errorf("job %s finished %s, want cancelled", id, st.State)
		}
	}
	// Cancelling a finished job conflicts.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+first.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("DELETE finished job = %d, want 409", resp.StatusCode)
	}
}

// TestConcurrentSubmitIDs stands in for the dispatcher: with the real one
// stopped, it pops each job straight off the queue and reads its ID, as
// the dispatcher's "job started" log does. A job pushed before its ID is
// assigned makes -race report that read (and can surface an empty ID
// without -race). Submitting from many goroutines against a shallow queue
// also checks that a shed submission consumes no ID: the accepted jobs
// hold exactly job-000001..job-N.
func TestConcurrentSubmitIDs(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2})
	m := svc.jobs
	m.stop()
	m.wg.Wait()

	const submitters = 16
	ctx, cancel := context.WithCancel(context.Background())
	// Sized to the submissions, so the popper never waits on the test.
	popped := make(chan string, submitters)
	go func() {
		defer close(popped)
		for j := m.queue.pop(ctx); j != nil; j = m.queue.pop(ctx) {
			popped <- j.id
		}
	}()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		accepted []string
	)
	for i := 0; i < submitters; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"cores":16,"threads":4,"hts":1,"epochs":4,"seed":%d,"workers":1}`, seed)
			resp, err := http.Post(ts.URL+"/v1/sims", "application/json", strings.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			switch resp.StatusCode {
			case http.StatusAccepted:
				var st jobStatus
				if err := json.Unmarshal(b, &st); err != nil {
					t.Errorf("decode job status: %v; body: %s", err, b)
					return
				}
				mu.Lock()
				accepted = append(accepted, st.ID)
				mu.Unlock()
			case http.StatusTooManyRequests:
			default:
				t.Errorf("POST = %d; body: %s", resp.StatusCode, b)
			}
		}(1000 + i)
	}
	wg.Wait()
	seen := make([]string, len(accepted))
	for i := range seen {
		seen[i] = <-popped
	}
	cancel()
	for range popped {
	}

	if len(accepted) == 0 {
		t.Fatal("no submission was accepted")
	}
	sort.Strings(accepted)
	sort.Strings(seen)
	for i, id := range accepted {
		if want := fmt.Sprintf("job-%06d", i+1); id != want {
			t.Fatalf("accepted IDs %v: position %d is %s, want %s", accepted, i, id, want)
		}
	}
	if fmt.Sprint(seen) != fmt.Sprint(accepted) {
		t.Errorf("IDs read off the queue %q, want the accepted IDs %q", seen, accepted)
	}
}

// TestCancelQueuedJobFreesItsSlot: cancelling a queued job frees its
// queue slot at once, so readiness and admission never wait for the
// dispatcher to pop the dead job. The dispatcher is stopped, as in
// TestConcurrentSubmitIDs, so nothing else drains the queue.
func TestCancelQueuedJobFreesItsSlot(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	svc.jobs.stop()
	svc.jobs.wg.Wait()
	healthz := func() int {
		resp, err := http.Get(ts.URL + "/v1/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	sim := `{"cores":16,"threads":4,"hts":1,"epochs":4,"seed":%d,"workers":1}`
	st := postJSON(t, ts.URL+"/v1/sims", fmt.Sprintf(sim, 1), http.StatusAccepted)
	if code := healthz(); code != http.StatusServiceUnavailable {
		t.Fatalf("full-queue healthz = %d, want 503", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE queued job = %d, want 202", resp.StatusCode)
	}
	if code := healthz(); code != http.StatusOK {
		t.Fatalf("healthz after cancelling the only queued job = %d, want 200", code)
	}
	postJSON(t, ts.URL+"/v1/sims", fmt.Sprintf(sim, 2), http.StatusAccepted)
}

// TestDiskSpillSurvivesEvictionAndRestart configures a one-entry memory
// cache with a disk tier: after eviction (and after a fresh server over
// the same directory), an identical submission is a disk hit served
// byte-identically.
func TestDiskSpillSurvivesEvictionAndRestart(t *testing.T) {
	cacheDir := t.TempDir()
	opts := Options{Workers: 1, CacheEntries: 1, CacheDir: cacheDir}
	_, ts := newTestServer(t, opts)

	st := postJSON(t, ts.URL+"/v1/campaigns", testSpec, http.StatusAccepted)
	if done := waitState(t, ts.URL, st.ID); done.State != jobDone {
		t.Fatalf("job finished %s (%s)", done.State, done.Error)
	}
	want := fetch(t, ts.URL, st.ID, "e3.csv")

	// Evict the entry with a different campaign.
	other := `{"name":"other","seed":2,"experiments":[{"id":"E2"}]}`
	st2 := postJSON(t, ts.URL+"/v1/campaigns", other, http.StatusAccepted)
	if done := waitState(t, ts.URL, st2.ID); done.State != jobDone {
		t.Fatalf("evicting job finished %s (%s)", done.State, done.Error)
	}

	st3 := postJSON(t, ts.URL+"/v1/campaigns", testSpec, http.StatusAccepted)
	if st3.State != jobDone || st3.Cache != "disk" {
		t.Fatalf("post-eviction submission state %s cache %q, want done from disk", st3.State, st3.Cache)
	}
	if got := fetch(t, ts.URL, st3.ID, "e3.csv"); !bytes.Equal(got, want) {
		t.Error("disk-tier artifact differs from the original")
	}

	// A fresh server over the same directory still hits the disk tier.
	_, ts2 := newTestServer(t, opts)
	st4 := postJSON(t, ts2.URL+"/v1/campaigns", testSpec, http.StatusAccepted)
	if st4.State != jobDone || st4.Cache != "disk" {
		t.Fatalf("post-restart submission state %s cache %q, want done from disk", st4.State, st4.Cache)
	}
	if got := fetch(t, ts2.URL, st4.ID, "e3.csv"); !bytes.Equal(got, want) {
		t.Error("post-restart artifact differs from the original")
	}
}

// TestSubmissionValidation rejects malformed bodies, and sims that cannot
// fit their chip, with 400 and the registry's canonical unknown-name
// error or the fit rule they break.
func TestSubmissionValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		url, body, want string
	}{
		{"/v1/campaigns", `{"name":"x","experiments":[{"id":"E99"}]}`, "unknown ID"},
		{"/v1/campaigns", `{"nope":1}`, "unknown field"},
		{"/v1/sims", `{"allocator":"nope"}`, "unknown allocator"},
		{"/v1/sims", `{"bogus":true}`, "unknown field"},
		{"/v1/sims", `{"infection":1.5}`, "outside [0, 1)"},
		{"/v1/sims", `{"placement":"diagonal"}`, "unknown placement"},
		// Sims that cannot fit their chip: a Trojan on every router
		// including the manager's, and a fourth app with no core left.
		{"/v1/sims", `{"cores":64,"threads":15,"hts":64,"epochs":4}`, "64 Trojans exceed 63 eligible nodes"},
		{"/v1/sims", `{"cores":64,"threads":32,"hts":4,"epochs":4}`, "no cores left for app blackscholes"},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+c.url, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s = %d, want 400", c.url, c.body, resp.StatusCode)
		}
		if !strings.Contains(string(b), c.want) {
			t.Errorf("POST %s %s error %q does not mention %q", c.url, c.body, b, c.want)
		}
	}
}

// TestPluginsHealthzMetrics sanity-checks the discovery and observability
// endpoints.
func TestPluginsHealthzMetrics(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	var plugins struct {
		Axes []struct {
			Axis    string   `json:"axis"`
			Plugins []string `json:"plugins"`
		} `json:"axes"`
	}
	resp, err := http.Get(ts.URL + "/v1/plugins")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&plugins); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(plugins.Axes) < 5 {
		t.Errorf("plugins listed %d axes, want the full registry set", len(plugins.Axes))
	}
	found := false
	for _, a := range plugins.Axes {
		if a.Axis == "allocator" && len(a.Plugins) > 0 {
			found = true
		}
	}
	if !found {
		t.Error("allocator axis missing from /v1/plugins")
	}

	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(b, []byte(`"ok"`)) {
		t.Errorf("healthz = %d %s", resp.StatusCode, b)
	}

	resp, err = http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, key := range []string{"jobs_submitted", "cache_hits", "epochs_observed", "epochs_per_sec", "uptime_seconds"} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
}

// TestCloseSealsQueuedJobs shuts the service down with work still queued:
// every job must reach a terminal state and every SSE stream must end, so
// graceful shutdown can never hang on a watcher of a never-started job.
func TestCloseSealsQueuedJobs(t *testing.T) {
	svc, ts := newTestServer(t, Options{Workers: 1, Jobs: 1, QueueDepth: 4})
	slow := `{"cores":256,"threads":16,"hts":8,"epochs":200,"seed":%d,"workers":1}`
	running := postJSON(t, ts.URL+"/v1/sims", fmt.Sprintf(slow, 201), http.StatusAccepted)
	queued := postJSON(t, ts.URL+"/v1/sims", fmt.Sprintf(slow, 202), http.StatusAccepted)

	// A watcher on the queued job must unblock when the service closes.
	sseDone := make(chan error, 1)
	go func() {
		resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events", ts.URL, queued.ID))
		if err != nil {
			sseDone <- err
			return
		}
		defer resp.Body.Close()
		_, err = io.Copy(io.Discard, resp.Body)
		sseDone <- err
	}()
	time.Sleep(50 * time.Millisecond)

	svc.Close()
	select {
	case err := <-sseDone:
		if err != nil {
			t.Fatalf("SSE watcher ended with %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("SSE watcher still blocked after Close")
	}
	for _, id := range []string{running.ID, queued.ID} {
		st := getJob(t, ts.URL, id)
		if st.State != jobCancelled {
			t.Errorf("job %s state %s after Close, want cancelled", id, st.State)
		}
	}
}

// TestSimCacheKeyNormalisation pins the content-address contract: a bare
// request, one spelling out the documented defaults, and one differing
// only in worker count all share a key; a result-relevant change splits
// it.
func TestSimCacheKeyNormalisation(t *testing.T) {
	key := func(body string) string {
		t.Helper()
		req, err := htsim.ParseRequest([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		return cacheKeyFor("sim", simCachePayload(req))
	}
	base := key(`{}`)
	if got := key(`{"cores":256,"threads":64,"hts":16,"epochs":10,"seed":1,"allocator":"fair","topology":"mesh"}`); got != base {
		t.Error("spelled-out defaults do not share the bare request's cache key")
	}
	if got := key(`{"workers":3}`); got != base {
		t.Error("worker count split the cache key (results are identical for any pool size)")
	}
	if got := key(`{"seed":2}`); got == base {
		t.Error("a different seed must not share the cache key")
	}
	// Literal keys under a fixed build: the request's wire form and its
	// normalisation must not move, or every cached sim would miss.
	build := results.Build{Revision: "r", Go: "go", Arch: "a"}
	for body, want := range map[string]string{
		`{}`: "00dbf4398576",
		`{"cores":64,"threads":4,"hts":4,"epochs":6,"seed":7,"workers":1}`: "9f18451c0ae6",
		`{"infection":0.5,"defense":"dual-path","mem":true}`:               "c6d93b511ca5",
	} {
		req, err := htsim.ParseRequest([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		if got := cacheKey("sim", simCachePayload(req), build); got != want {
			t.Errorf("cache key of %s = %s, want %s", body, got, want)
		}
	}
}

// TestCacheKeyTracksBuild: a cache directory shared by two builds must
// never serve one build's bytes to the other, so each field of the build
// moves the key on its own.
func TestCacheKeyTracksBuild(t *testing.T) {
	b := results.ThisBuild()
	if cacheKey("campaign", "p", b) != cacheKeyFor("campaign", "p") {
		t.Fatal("cacheKeyFor does not hash the running build")
	}
	for _, mutate := range []func(*results.Build){
		func(b *results.Build) { b.Revision += "x" },
		func(b *results.Build) { b.Go += "x" },
		func(b *results.Build) { b.Arch += "x" },
	} {
		other := b
		mutate(&other)
		if cacheKey("campaign", "p", other) == cacheKeyFor("campaign", "p") {
			t.Errorf("cache key ignores a build change to %+v", other)
		}
	}
}

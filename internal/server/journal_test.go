package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// This file is the durability suite for the write-ahead job journal
// (journal.go, DESIGN.md §12): a server killed mid-backlog — or shut
// down gracefully, which deliberately has the same journal semantics —
// replays its unfinished jobs on the next boot and finishes them with
// artifacts byte-identical to an uninterrupted run. The crash half of
// each test is an abandoned server: no Close, exactly what kill -9
// leaves behind.

// newCrashableServer boots a service whose teardown is abandonment, not
// Close — the kill -9 half of the crash/replay tests. Only the test
// listener is cleaned up; the service itself is left exactly as a dead
// process would leave its journal.
func newCrashableServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	svc, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts
}

// waitRunning polls until the job reports running — the backlog tests
// need the victim job wedged in execution (not queued) before the crash.
func waitRunning(t *testing.T, base, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if getJob(t, base, id).State == jobRunning {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never started running", id)
}

// TestJournalCrashReplayFinishesBacklogByteIdentical is the tentpole
// acceptance test: wedge a journaled server with one running and three
// queued jobs, the last a sim, kill it (abandon, no Close), boot a fresh
// server on the same journal directory, and require that every job
// replays — in its original priority lane — runs to done, and serves
// artifacts byte-identical to what `htcampaign run` writes for the same
// spec, or for the sim, to its golden files.
func TestJournalCrashReplayFinishesBacklogByteIdentical(t *testing.T) {
	want := cliArtifacts(t)
	dir := t.TempDir()
	_, ts1 := newCrashableServer(t, Options{
		Workers:    1,
		JournalDir: dir,
		// Every job wedges for 60s at the job.run fault point: the first
		// holds the single job slot, the rest pile up queued — a backlog no
		// graceful path ever finalises.
		Faults: mustFaults(t, "job.run:latency:delay=60s"),
	})

	a := postJSON(t, ts1.URL+"/v1/campaigns", testSpec, http.StatusAccepted)
	waitRunning(t, ts1.URL, a.ID)
	high := `{"name":"urgent","seed":5,"experiments":[{"id":"E1","params":{"size":64}}]}`
	low := `{"name":"bulk","seed":6,"experiments":[{"id":"E3","params":{"trials":3}}]}`
	postWithHeaders(t, ts1.URL+"/v1/campaigns", high, map[string]string{"X-Priority": "high"})
	postWithHeaders(t, ts1.URL+"/v1/campaigns", low, map[string]string{"X-Priority": "low"})
	sim := goldenSims[0]
	postJSON(t, ts1.URL+"/v1/sims", sim.body, http.StatusAccepted)
	// Crash: ts1's service is abandoned with one running and three queued
	// jobs, all journaled, none terminal.

	_, ts2 := newTestServer(t, Options{Workers: 1, JournalDir: dir})
	m := metricsSnapshot(t, ts2.URL)
	if got := m["journal_replayed"].(float64); got != 4 {
		t.Fatalf("journal_replayed = %v, want 4", got)
	}
	if got := m["journal_appends"].(float64); got != 4 {
		t.Fatalf("journal_appends = %v, want 4 (replay re-journals each accept)", got)
	}
	// Replay preserves sequence order, so ids map 1:1 onto the original
	// submission order; lanes must survive the round trip.
	for i, wantPrio := range []string{"", "high", "low", ""} {
		st := waitState(t, ts2.URL, fmt.Sprintf("job-%06d", i+1))
		if st.State != jobDone {
			t.Fatalf("replayed job %d finished %s (%s), want done", i+1, st.State, st.Error)
		}
		if st.Priority != wantPrio {
			t.Errorf("replayed job %d priority %q, want %q", i+1, st.Priority, wantPrio)
		}
	}
	// The original backlog's first job — the golden spec — must produce
	// the exact CLI bytes, crash or no crash, and the replayed sim its
	// golden run.json.
	assertGoldenArtifacts(t, ts2.URL, "job-000001", want)
	checkGolden(t, sim.name+".json", normalizeGoVersion(fetch(t, ts2.URL, "job-000004", "run.json")))
}

// TestJournalGracefulShutdownKeepsBacklogPending pins the deliberate
// shutdown asymmetry: Close seals the journal before sweeping jobs to
// cancelled, so a job interrupted by shutdown keeps its pending accept
// record and replays on the next boot. Graceful shutdown is a polite
// crash — the cancellation is a shutdown artifact, not user intent.
func TestJournalGracefulShutdownKeepsBacklogPending(t *testing.T) {
	want := cliArtifacts(t)
	dir := t.TempDir()
	svc1, ts1 := newTestServer(t, Options{
		Workers:    1,
		JournalDir: dir,
		Faults:     mustFaults(t, "job.run:latency:delay=60s"),
	})
	st := postJSON(t, ts1.URL+"/v1/campaigns", testSpec, http.StatusAccepted)
	waitRunning(t, ts1.URL, st.ID)
	svc1.Close()
	if got := getJob(t, ts1.URL, st.ID); got.State != jobCancelled {
		t.Fatalf("swept job state %s, want cancelled", got.State)
	}

	_, ts2 := newTestServer(t, Options{Workers: 1, JournalDir: dir})
	if got := metricsSnapshot(t, ts2.URL)["journal_replayed"].(float64); got != 1 {
		t.Fatalf("journal_replayed = %v, want 1 (shutdown-swept job must stay pending)", got)
	}
	done := waitState(t, ts2.URL, "job-000001")
	if done.State != jobDone {
		t.Fatalf("replayed job finished %s (%s), want done", done.State, done.Error)
	}
	assertGoldenArtifacts(t, ts2.URL, "job-000001", want)
}

// TestJournalFinishedJobsDoNotReplay: a job that reached a terminal
// state before the restart has a matching terminal record and must not
// resurrect.
func TestJournalFinishedJobsDoNotReplay(t *testing.T) {
	dir := t.TempDir()
	svc1, ts1 := newTestServer(t, Options{Workers: 1, JournalDir: dir})
	st := postJSON(t, ts1.URL+"/v1/campaigns", testSpec, http.StatusAccepted)
	if done := waitState(t, ts1.URL, st.ID); done.State != jobDone {
		t.Fatalf("job finished %s, want done", done.State)
	}
	svc1.Close()

	_, ts2 := newTestServer(t, Options{Workers: 1, JournalDir: dir})
	if got := metricsSnapshot(t, ts2.URL)["journal_replayed"].(float64); got != 0 {
		t.Fatalf("journal_replayed = %v, want 0", got)
	}
	resp, err := http.Get(ts2.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Jobs []jobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Jobs) != 0 {
		t.Fatalf("restarted server has %d jobs, want none", len(listing.Jobs))
	}
}

// TestJournalShedJobsDoNotResurrect: a 429'd submission was journaled
// as accepted (durability precedes the queue-full check) but carries a
// synthetic "rejected" terminal — without it the shed job would
// resurrect at boot and the 429 would have lied.
func TestJournalShedJobsDoNotResurrect(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newCrashableServer(t, Options{
		Workers:    1,
		Jobs:       1,
		QueueDepth: 1,
		JournalDir: dir,
		Faults:     mustFaults(t, "job.run:latency:delay=60s"),
	})
	a := postJSON(t, ts1.URL+"/v1/campaigns", testSpec, http.StatusAccepted)
	waitRunning(t, ts1.URL, a.ID)
	b := `{"name":"held","seed":5,"experiments":[{"id":"E1","params":{"size":64}}]}`
	postJSON(t, ts1.URL+"/v1/campaigns", b, http.StatusAccepted)
	// Give the dispatcher time to pop the held job and block at the gate
	// — it always has one popped job in hand — so the next submission
	// fills the queue proper and the one after that sheds.
	time.Sleep(100 * time.Millisecond)
	c := `{"name":"queued","seed":6,"experiments":[{"id":"E1","params":{"size":64}}]}`
	postJSON(t, ts1.URL+"/v1/campaigns", c, http.StatusAccepted)
	shed := `{"name":"shed","seed":7,"experiments":[{"id":"E1","params":{"size":64}}]}`
	resp, _ := postWithHeaders(t, ts1.URL+"/v1/campaigns", shed, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("fourth submission = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing the Retry-After backoff hint")
	}

	_, ts2 := newTestServer(t, Options{Workers: 1, JournalDir: dir})
	if got := metricsSnapshot(t, ts2.URL)["journal_replayed"].(float64); got != 3 {
		t.Fatalf("journal_replayed = %v, want 3 (the shed job must stay shed)", got)
	}
	for _, id := range []string{"job-000001", "job-000002", "job-000003"} {
		if st := waitState(t, ts2.URL, id); st.State != jobDone {
			t.Fatalf("replayed job %s finished %s (%s), want done", id, st.State, st.Error)
		}
	}
}

// TestJournalWriteFaultRejectsSubmission pins the load-bearing accept
// append: when the journal cannot make a submission durable (the
// injected journal.write fault), the submission is rejected with 500 —
// accepting a job a crash would silently lose is the one thing the
// journal must never do. The next submission, with the fault spent,
// sails through.
func TestJournalWriteFaultRejectsSubmission(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Options{
		Workers:    1,
		JournalDir: dir,
		Faults:     mustFaults(t, "journal.write:error:times=1"),
	})
	postJSON(t, ts.URL+"/v1/campaigns", testSpec, http.StatusInternalServerError)
	st := postJSON(t, ts.URL+"/v1/campaigns", testSpec, http.StatusAccepted)
	if done := waitState(t, ts.URL, st.ID); done.State != jobDone {
		t.Fatalf("post-fault submission finished %s, want done", done.State)
	}
	m := metricsSnapshot(t, ts.URL)
	if got := m["jobs_rejected"].(float64); got != 1 {
		t.Errorf("jobs_rejected = %v, want 1", got)
	}
	if got := m["journal_appends"].(float64); got != 1 {
		t.Errorf("journal_appends = %v, want 1 (only the durable accept counts)", got)
	}
}

// TestJournalReplayFaultFailsBoot: the journal.replay fault point
// models a poisoned record mid-replay — an injected error must fail New
// outright rather than let the server open having silently half-replayed
// its backlog. The journal file itself survives the failed boot (the
// copy-then-swap compaction only commits after a full replay), so a
// later clean boot still replays.
func TestJournalReplayFaultFailsBoot(t *testing.T) {
	dir := t.TempDir()
	rec := `{"seq":1,"type":"accept","kind":"campaign","name":"golden","lane":"normal","body":` + testSpec + `}`
	if err := os.WriteFile(filepath.Join(dir, journalFile), []byte("\n"+rec+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := New(Options{
		Workers:    1,
		JournalDir: dir,
		Faults:     mustFaults(t, "journal.replay:error:times=1"),
	})
	if err == nil {
		t.Fatal("New succeeded under a journal.replay fault, want a failed boot")
	}
	// The old journal must be intact: a clean boot replays the record.
	_, ts := newTestServer(t, Options{Workers: 1, JournalDir: dir})
	if got := metricsSnapshot(t, ts.URL)["journal_replayed"].(float64); got != 1 {
		t.Fatalf("journal_replayed = %v after recovered boot, want 1", got)
	}
	if st := waitState(t, ts.URL, "job-000001"); st.State != jobDone {
		t.Fatalf("replayed job finished %s, want done", st.State)
	}
}

// TestReadJournalSkipsTornLines pins the torn-write tolerance at the
// parser level: a line cut mid-byte — at the tail or mid-file — costs
// exactly that record, because the next append's leading newline keeps
// it from gluing onto a healthy line.
func TestReadJournalSkipsTornLines(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, journalFile)
	var buf bytes.Buffer
	buf.WriteString("\n" + `{"seq":1,"type":"accept","kind":"campaign","name":"a"}` + "\n")
	// A mid-file tear: the append was truncated, then the process died,
	// restarted, and the next append started with its leading newline.
	buf.WriteString("\n" + `{"seq":2,"type":"accept","kind":"camp`)
	buf.WriteString("\n" + `{"seq":3,"type":"accept","kind":"campaign","name":"c"}` + "\n")
	buf.WriteString("\n" + `{"seq":4,"type":"terminal","ref":1,"state":"done"}` + "\n")
	// And a torn tail.
	buf.WriteString("\n" + `{"seq":5,"type":"acc`)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("parsed %d records, want 3 (torn seq 2 and 5 skipped): %+v", len(recs), recs)
	}
	pending := pendingRecords(recs)
	if len(pending) != 1 || pending[0].Seq != 3 {
		t.Fatalf("pending = %+v, want exactly seq 3 (seq 1 reached terminal)", pending)
	}

	// A missing journal is an empty journal, not an error.
	if recs, err := readJournal(filepath.Join(dir, "absent.log")); err != nil || recs != nil {
		t.Fatalf("missing journal = (%v, %v), want (nil, nil)", recs, err)
	}
}

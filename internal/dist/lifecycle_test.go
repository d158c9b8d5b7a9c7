package dist

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/faultinject"
	"repro/internal/store"
)

// This file covers the durability-and-lifecycle layer of the
// coordinator (DESIGN.md §12): per-worker circuit breakers, the disk
// checkpoint store that makes coordinator restarts cheap, and straggler
// hedging.

// goldenSpec mirrors internal/server's test campaign: cheap, two
// experiments, enough trials to shard.
const goldenSpec = `{"name":"golden","seed":1,"experiments":[{"id":"E1","params":{"size":64}},{"id":"E3","params":{"trials":3}}]}`

// mustParseFaults builds a fault set or fails the test.
func mustParseFaults(t *testing.T, spec string) *faultinject.Set {
	t.Helper()
	fs, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// shardWorker boots a fake worker that actually executes shards (no
// build-fingerprint check — both sides of these tests are one binary)
// and answers with the terminal result frame alone. beforeRun, when
// non-nil, runs before each shard execution (a sleep makes a
// straggler).
func shardWorker(t *testing.T, beforeRun func()) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req ShardRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if beforeRun != nil {
			beforeRun()
		}
		res, err := campaign.RunShard(r.Context(), req.Shard, 1, nil)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(StreamFrame{Result: res})
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestBreakerLifecycle walks one worker's breaker through the full
// state machine: closed under sub-threshold failures, open at the
// consecutive-failure threshold (with a doubling backoff window),
// reopening immediately on a failed half-open probe, and fully reset by
// one success.
func TestBreakerLifecycle(t *testing.T) {
	opened := 0
	c, err := New(Options{
		BreakerFailures: 3,
		Seed:            42,
		Observe:         Observe{BreakerOpened: func() { opened++ }},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Register("http://a:1")
	c.Register("http://b:1")
	wa, wb := c.workers[0], c.workers[1]

	c.recordFailure(wa)
	c.recordFailure(wa)
	if !wa.openUntil.IsZero() || opened != 0 {
		t.Fatal("breaker opened below the consecutive-failure threshold")
	}
	c.recordFailure(wa)
	if wa.openUntil.IsZero() || opened != 1 {
		t.Fatalf("breaker not open at threshold (openUntil %v, opened %d)", wa.openUntil, opened)
	}
	if wa.backoff != 2*breakerBaseBackoff {
		t.Fatalf("backoff after first open = %v, want doubled %v", wa.backoff, 2*breakerBaseBackoff)
	}

	// Inside the window only the healthy worker is eligible.
	wa.openUntil = time.Now().Add(time.Hour)
	if ws := c.eligibleWorkers(time.Now()); len(ws) != 1 || ws[0] != wb {
		t.Fatalf("eligible = %d workers, want only the closed one", len(ws))
	}
	// Past the window the breaker is half-open: one probe is allowed.
	if ws := c.eligibleWorkers(time.Now().Add(2 * time.Hour)); len(ws) != 2 {
		t.Fatalf("half-open worker not eligible past its window (got %d)", len(ws))
	}
	// A failed half-open probe reopens immediately — no three-strike
	// grace for a worker that just proved it is still sick — and doubles
	// the window again.
	c.recordFailure(wa)
	if opened != 2 || wa.backoff != 4*breakerBaseBackoff {
		t.Fatalf("failed probe: opened %d backoff %v, want 2 opens and %v", opened, wa.backoff, 4*breakerBaseBackoff)
	}

	// One success heals everything.
	c.recordSuccess(wa, 10*time.Millisecond)
	if !wa.openUntil.IsZero() || wa.fails != 0 || wa.backoff != breakerBaseBackoff {
		t.Fatalf("success did not reset the breaker: %+v", wa)
	}

	// When every breaker is open, the whole pool is returned — failing
	// fast with no alternative helps nobody.
	wa.openUntil = time.Now().Add(time.Hour)
	wb.openUntil = time.Now().Add(time.Hour)
	if ws := c.eligibleWorkers(time.Now()); len(ws) != 2 {
		t.Fatalf("all-open fallback returned %d workers, want the full pool", len(ws))
	}
}

// TestBreakerDisabled: a negative threshold turns breakers off.
func TestBreakerDisabled(t *testing.T) {
	opened := 0
	c, err := New(Options{BreakerFailures: -1, Observe: Observe{BreakerOpened: func() { opened++ }}})
	if err != nil {
		t.Fatal(err)
	}
	c.Register("http://a:1")
	for i := 0; i < 10; i++ {
		c.recordFailure(c.workers[0])
	}
	if !c.workers[0].openUntil.IsZero() || opened != 0 {
		t.Fatal("disabled breaker opened")
	}
}

// TestRegisterStableIDAndRemove: the pool id is content-derived from
// the URL (stable across re-registration and restarts), registration is
// idempotent, and Remove by id is the drain path.
func TestRegisterStableIDAndRemove(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	id, added := c.Register("http://a:1/")
	if !added || id == "" || id != workerID("http://a:1") {
		t.Fatalf("registration = (%q, %v), want the URL-derived id, added", id, added)
	}
	if id2, added2 := c.Register("http://a:1"); added2 || id2 != id {
		t.Fatalf("re-registration = (%q, %v), want same id, not added", id2, added2)
	}
	if !c.Remove(id) {
		t.Fatal("Remove of a known id failed")
	}
	if c.Remove(id) {
		t.Fatal("Remove of a gone id succeeded")
	}
	if len(c.WorkerURLs()) != 0 {
		t.Fatalf("pool = %v after removal, want empty", c.WorkerURLs())
	}
}

// TestCheckpointStoreRoundTripAndQuarantine: a spilled shard result
// reads back intact; tampered bytes are detected by the sha256
// manifest, quarantined for post-mortem, and reported as a miss.
func TestCheckpointStoreRoundTripAndQuarantine(t *testing.T) {
	dir := t.TempDir()
	s, err := openCheckpoints(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	r := &campaign.ShardResult{Shard: campaign.Shard{Experiment: campaign.ExperimentSpec{ID: "E1"}, Lo: 0, Hi: 2}}
	if err := saveCheckpoint(s, "k1", r); err != nil {
		t.Fatal(err)
	}
	got, ok := loadCheckpoint(s, "k1")
	if !ok || got.Shard.Experiment.ID != "E1" || got.Shard.Hi != 2 {
		t.Fatalf("round trip = (%+v, %v), want the stored result", got, ok)
	}

	// Tamper: flip bytes in the entry; the manifest must catch it.
	path := filepath.Join(dir, "k1", checkpointFile)
	if err := os.WriteFile(path, []byte(`{"shard":{}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := loadCheckpoint(s, "k1"); ok {
		t.Fatal("tampered checkpoint served as trusted")
	}
	if _, err := os.Stat(filepath.Join(dir, store.QuarantineDir, "k1-0")); err != nil {
		t.Fatalf("tampered entry not quarantined: %v", err)
	}
	if _, ok := loadCheckpoint(s, "k1"); ok {
		t.Fatal("quarantined entry still readable under its key")
	}
	// The key is reusable after quarantine.
	if err := saveCheckpoint(s, "k1", r); err != nil {
		t.Fatal(err)
	}
	if _, ok := loadCheckpoint(s, "k1"); !ok {
		t.Fatal("re-spill after quarantine missed")
	}

	// A nil store (no checkpoint dir) misses and refuses puts, never
	// panics.
	var nilStore *store.Dir
	if _, ok := loadCheckpoint(nilStore, "k"); ok {
		t.Fatal("nil store hit")
	}
	if err := saveCheckpoint(nilStore, "k", r); err == nil {
		t.Fatal("nil store accepted a put")
	}
}

// TestCheckpointFaultPoints: an injected write fault skips the
// checkpoint (put errors, shard unaffected by contract), an injected
// read fault degrades to a miss.
func TestCheckpointFaultPoints(t *testing.T) {
	r := &campaign.ShardResult{Shard: campaign.Shard{Experiment: campaign.ExperimentSpec{ID: "E1"}}}
	sw, err := openCheckpoints(t.TempDir(), mustParseFaults(t, "shard.checkpoint.write:error:times=1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := saveCheckpoint(sw, "k", r); err == nil {
		t.Fatal("put under write fault succeeded")
	}
	if err := saveCheckpoint(sw, "k", r); err != nil {
		t.Fatalf("put after fault spent: %v", err)
	}

	sr, err := openCheckpoints(t.TempDir(), mustParseFaults(t, "shard.checkpoint.read:error:times=1"))
	if err != nil {
		t.Fatal(err)
	}
	if err := saveCheckpoint(sr, "k", r); err != nil {
		t.Fatal(err)
	}
	if _, ok := loadCheckpoint(sr, "k"); ok {
		t.Fatal("get under read fault hit")
	}
	if _, ok := loadCheckpoint(sr, "k"); !ok {
		t.Fatal("get after fault spent missed")
	}
}

// TestCheckpointResumeRecomputesNothing is the restart contract end to
// end: a campaign runs once against a live worker (spilling every shard
// to the checkpoint store), the worker dies, a brand-new coordinator on
// the same checkpoint directory runs the same campaign — and answers it
// entirely from checkpoints, byte-identical, with zero dispatches.
func TestCheckpointResumeRecomputesNothing(t *testing.T) {
	dir := t.TempDir()
	worker := shardWorker(t, nil)
	spec, err := campaign.ParseSpec([]byte(goldenSpec))
	if err != nil {
		t.Fatal(err)
	}

	// Observe callbacks fire from concurrent shard goroutines.
	var dispatched1, checkpointed atomic.Int64
	c1, err := New(Options{
		Workers:       []string{worker.URL},
		MaxShards:     4,
		CheckpointDir: dir,
		Observe: Observe{
			Dispatched:   func(string) { dispatched1.Add(1) },
			Checkpointed: func() { checkpointed.Add(1) },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tables1, err := c1.RunCampaign(context.Background(), spec, campaign.Progress{})
	if err != nil {
		t.Fatal(err)
	}
	if dispatched1.Load() == 0 || checkpointed.Load() != dispatched1.Load() {
		t.Fatalf("first run dispatched %d, checkpointed %d — every dispatched shard must spill", dispatched1.Load(), checkpointed.Load())
	}

	worker.Close() // the pool is now dead; only checkpoints can answer

	var dispatched2, resumed atomic.Int64
	c2, err := New(Options{
		Workers:       []string{worker.URL},
		MaxShards:     4,
		CheckpointDir: dir,
		Observe: Observe{
			Dispatched: func(string) { dispatched2.Add(1) },
			Resumed:    func() { resumed.Add(1) },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	tables2, err := c2.RunCampaign(context.Background(), spec, campaign.Progress{})
	if err != nil {
		t.Fatalf("resumed campaign failed against a dead pool: %v", err)
	}
	if dispatched2.Load() != 0 {
		t.Fatalf("resumed campaign dispatched %d shards, want 0 (all from checkpoints)", dispatched2.Load())
	}
	if resumed.Load() != checkpointed.Load() {
		t.Fatalf("resumed %d shards, want all %d checkpointed ones", resumed.Load(), checkpointed.Load())
	}
	b1, _ := json.Marshal(tables1)
	b2, _ := json.Marshal(tables2)
	if string(b1) != string(b2) {
		t.Fatal("resumed tables differ from the original run")
	}
}

// TestHedgedDispatchFirstCompleteWins races a deliberately straggling
// primary against a hedge: the secondary's answer arrives first and
// wins, the campaign never waits out the straggler, and the detached
// audit of the loser finds the two byte-identical.
func TestHedgedDispatchFirstCompleteWins(t *testing.T) {
	slow := shardWorker(t, func() { time.Sleep(600 * time.Millisecond) })
	fast := shardWorker(t, nil)

	hedges := 0
	c, err := New(Options{
		HedgeDelay: 50 * time.Millisecond,
		Observe:    Observe{Hedged: func() { hedges++ }},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Register(slow.URL)
	c.Register(fast.URL)
	primary, secondary := c.workers[0], c.workers[1]

	spec, err := campaign.ParseSpec([]byte(goldenSpec))
	if err != nil {
		t.Fatal(err)
	}
	shards, err := campaign.PlanShards(spec, 2)
	if err != nil {
		t.Fatal(err)
	}

	t0 := time.Now()
	r, err := c.dispatchHedged(context.Background(), primary, secondary, shards[0], 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(t0); elapsed >= 600*time.Millisecond {
		t.Fatalf("hedged dispatch took %v — it waited out the straggler", elapsed)
	}
	if hedges != 1 {
		t.Fatalf("hedges = %d, want 1", hedges)
	}
	if r == nil || r.Shard.Experiment.ID != shards[0].Experiment.ID {
		t.Fatalf("hedged result = %+v, want shard %s", r, shards[0])
	}
	// Let the straggler finish so the detached audit runs; determinism
	// means the loser must be byte-identical, never a counted mismatch.
	time.Sleep(700 * time.Millisecond)
	if n := c.HedgeMismatches(); n != 0 {
		t.Fatalf("hedge audit counted %d mismatches on a deterministic shard", n)
	}
}

// TestAwaitWorkersBridgesLateRegistration: a coordinator whose pool is
// momentarily empty (the boot-order race after a restart: journaled
// campaigns replay before workers re-heartbeat) waits for the first
// registration instead of failing; with waiting disabled it fails fast.
func TestAwaitWorkersBridgesLateRegistration(t *testing.T) {
	c, err := New(Options{PoolWait: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(200 * time.Millisecond)
		c.Register("http://late:1")
	}()
	t0 := time.Now()
	if err := c.awaitWorkers(context.Background()); err != nil {
		t.Fatalf("awaitWorkers with a late registration: %v", err)
	}
	if time.Since(t0) < 200*time.Millisecond {
		t.Fatal("awaitWorkers returned before any worker registered")
	}

	fail, err := New(Options{PoolWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	if err := fail.awaitWorkers(context.Background()); err == nil {
		t.Fatal("awaitWorkers with waiting disabled and an empty pool succeeded")
	}
}

package exp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Errorf("Workers(3) = %d", got)
	}
	if got := Workers(0); got < 1 {
		t.Errorf("Workers(0) = %d, want >= 1", got)
	}
	if got := Workers(-2); got < 1 {
		t.Errorf("Workers(-2) = %d, want >= 1", got)
	}
}

func TestRunCollectsInTrialOrder(t *testing.T) {
	out, err := Run(context.Background(), 4, 100, func(_ context.Context, trial int) (int, error) { return trial * trial, nil })
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(out) != 100 {
		t.Fatalf("results = %d, want 100", len(out))
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestRunZeroTrials(t *testing.T) {
	out, err := Run(context.Background(), 4, 0, func(context.Context, int) (int, error) { t.Fatal("fn must not run"); return 0, nil })
	if err != nil || out != nil {
		t.Fatalf("Run(0 trials) = %v, %v", out, err)
	}
}

func TestRunReturnsLowestIndexedError(t *testing.T) {
	bad := map[int]bool{17: true, 41: true, 80: true}
	_, err := Run(context.Background(), 8, 100, func(_ context.Context, trial int) (int, error) {
		if bad[trial] {
			return 0, fmt.Errorf("trial %d failed", trial)
		}
		return trial, nil
	})
	if err == nil || err.Error() != "trial 17 failed" {
		t.Fatalf("err = %v, want trial 17's error", err)
	}
}

func TestRunDeterministicAcrossWorkerCounts(t *testing.T) {
	// The canonical usage pattern: each trial seeds its own RNG from the
	// trial index. Results must be identical for any worker count.
	campaign := func(workers int) []float64 {
		out, err := Run(context.Background(), workers, 64, func(_ context.Context, trial int) (float64, error) {
			rng := rand.New(rand.NewSource(TrialSeed(99, trial)))
			sum := 0.0
			for i := 0; i < 100; i++ {
				sum += rng.Float64()
			}
			return sum, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}
	want := campaign(1)
	for _, w := range []int{2, 4, 8, 16} {
		got := campaign(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: trial %d = %v, want %v (not bit-identical)", w, i, got[i], want[i])
			}
		}
	}
}

func TestRunAllTrialsCompleteDespiteError(t *testing.T) {
	ran := make([]bool, 32)
	_, err := Run(context.Background(), 4, 32, func(_ context.Context, trial int) (int, error) {
		ran[trial] = true
		if trial == 0 {
			return 0, errors.New("boom")
		}
		return trial, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	for i, r := range ran {
		if !r {
			t.Fatalf("trial %d never ran", i)
		}
	}
}

// TestGateBoundsConcurrency verifies the Gate admits at most its capacity
// of concurrent holders while all work still completes.
func TestGateBoundsConcurrency(t *testing.T) {
	const cap, tasks = 3, 20
	g := NewGate(cap)
	var cur, peak, done atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < tasks; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Acquire(context.Background()); err != nil {
				t.Error(err)
				return
			}
			defer g.Release()
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			done.Add(1)
		}()
	}
	wg.Wait()
	if got := done.Load(); got != tasks {
		t.Errorf("%d tasks completed, want %d", got, tasks)
	}
	if p := peak.Load(); p > cap {
		t.Errorf("peak concurrency %d exceeds gate capacity %d", p, cap)
	}
}

// TestGateAcquireHonoursContext verifies a full gate unblocks with the
// context's error when the waiter is cancelled.
func TestGateAcquireHonoursContext(t *testing.T) {
	g := NewGate(1)
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := g.Acquire(ctx); err != context.Canceled {
		t.Fatalf("Acquire on cancelled ctx = %v, want context.Canceled", err)
	}
	if err := g.AcquireWithin(context.Background(), time.Millisecond); !errors.Is(err, ErrAcquireTimeout) {
		t.Fatalf("AcquireWithin on a full gate = %v, want ErrAcquireTimeout", err)
	}
}

// TestGateAcquireWithinTimesOut verifies the bounded acquire: a full
// gate returns ErrAcquireTimeout after the deadline, a free slot is
// taken immediately, and d <= 0 degrades to a plain Acquire.
func TestGateAcquireWithinTimesOut(t *testing.T) {
	g := NewGate(1)
	if err := g.AcquireWithin(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := g.AcquireWithin(context.Background(), 20*time.Millisecond)
	if !errors.Is(err, ErrAcquireTimeout) {
		t.Fatalf("AcquireWithin on full gate = %v, want ErrAcquireTimeout", err)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("AcquireWithin returned before its deadline")
	}
	g.Release()
	if err := g.AcquireWithin(context.Background(), 20*time.Millisecond); err != nil {
		t.Fatalf("AcquireWithin on free gate = %v", err)
	}
	g.Release()

	// Cancellation still beats the deadline.
	if err := g.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer g.Release()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := g.AcquireWithin(ctx, time.Minute); !errors.Is(err, context.Canceled) {
		t.Fatalf("AcquireWithin on cancelled ctx = %v, want context.Canceled", err)
	}
}

// TestRunCtxRecoversTrialPanics verifies a panicking trial fails only
// its own slot: every other trial completes and the lowest-indexed
// panic is the reported error, for any worker count.
func TestRunCtxRecoversTrialPanics(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var completed atomic.Int64
		_, err := Run(context.Background(), workers, 16, func(_ context.Context, trial int) (int, error) {
			if trial == 5 || trial == 11 {
				panic(fmt.Sprintf("poisoned trial %d", trial))
			}
			completed.Add(1)
			return trial, nil
		})
		if err == nil || !strings.Contains(err.Error(), "trial 5 panicked") {
			t.Fatalf("workers=%d: err = %v, want the lowest-indexed panic", workers, err)
		}
		if got := completed.Load(); got != 14 {
			t.Fatalf("workers=%d: %d healthy trials completed, want 14", workers, got)
		}
	}
}

// TestStreamSeedIndependence pins the keyed-stream derivation: the same
// (base, name) pair always yields the same seed, different names or bases
// land far apart, and streams derived for adjacent client indices do not
// collide the way raw base+offset seeding would.
func TestStreamSeedIndependence(t *testing.T) {
	if StreamSeed(1, "client-0") != StreamSeed(1, "client-0") {
		t.Fatal("StreamSeed is not deterministic")
	}
	seen := make(map[int64]string)
	for _, base := range []int64{0, 1, 2, 1 << 40} {
		for c := 0; c < 64; c++ {
			name := fmt.Sprintf("client-%d", c)
			s := StreamSeed(base, name)
			key := fmt.Sprintf("%d/%s", base, name)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s and %s both map to %d", prev, key, s)
			}
			seen[s] = key
		}
	}
	// Adjacent bases with the same name must not be adjacent seeds: the
	// avalanche step is what keeps subsystem streams decoupled.
	if d := StreamSeed(2, "x") - StreamSeed(1, "x"); d == 1 || d == -1 {
		t.Fatalf("adjacent bases produced adjacent seeds (delta %d)", d)
	}
}

// TestShardSeedIndependence pins the shard-substream contract: the same
// (parent, shard) pair always derives the same seed, sibling shards of
// one parent never collide, and — the property the distributed merge
// relies on — the values drawn inside one shard's stream are unaffected
// by how many draws a sibling shard makes. Adding a draw site in shard 0
// must never change what shard 1 sees.
func TestShardSeedIndependence(t *testing.T) {
	if ShardSeed(42, 3) != ShardSeed(42, 3) {
		t.Fatal("ShardSeed is not deterministic")
	}
	seen := make(map[int64]string)
	for _, parent := range []int64{0, 1, 7, 1 << 33} {
		for s := 0; s < 128; s++ {
			seed := ShardSeed(parent, s)
			key := fmt.Sprintf("%d/%d", parent, s)
			if prev, dup := seen[seed]; dup {
				t.Fatalf("shard seed collision: %s and %s both map to %d", prev, key, seed)
			}
			seen[seed] = key
		}
	}
	// Shard-local draw independence: drain extra values from shard 0's
	// stream and confirm shard 1's stream is byte-for-byte the same
	// sequence as before. With a shared RNG this would fail; with keyed
	// substreams it cannot.
	drawn := func(shard, n, burn int) []float64 {
		rng := rand.New(rand.NewSource(ShardSeed(9, shard)))
		if burn > 0 {
			burner := rand.New(rand.NewSource(ShardSeed(9, 0)))
			for i := 0; i < burn; i++ {
				burner.Float64()
			}
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = rng.Float64()
		}
		return out
	}
	before := drawn(1, 16, 0)
	after := drawn(1, 16, 1000)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("shard 1 draw %d changed after extra shard-0 draws: %v vs %v", i, before[i], after[i])
		}
	}
}

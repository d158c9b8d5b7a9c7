// Package exp provides the deterministic parallel trial runner behind the
// campaign experiments. Every figure of the paper's Section V evaluation
// is an average over many independent trials (random Trojan placements,
// attack variants, defense configurations); this package fans those trials
// out over a worker pool while keeping results bit-identical for any
// worker count.
//
// Determinism rests on two rules the experiment layer must follow:
//
//  1. Every trial derives its own random stream from the campaign seed and
//     its trial index (TrialSeed), never from a shared RNG, so the values a
//     trial consumes do not depend on which worker ran it or in what order.
//  2. Trial functions share no mutable state; results are written into a
//     slice slot owned exclusively by the trial's index.
package exp

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Workers resolves a requested worker count: values above zero are used as
// given, anything else means one worker per available CPU.
func Workers(requested int) int {
	if requested > 0 {
		return requested
	}
	return runtime.GOMAXPROCS(0)
}

// Gate is a context-aware counting semaphore bounding how many holders run
// at once. The simulation service uses one to cap concurrent jobs on the
// same worker budget the trial pools draw from: a job Acquires a slot
// before fanning its experiments out over Run and Releases it when
// the campaign finishes, so queued jobs wait instead of oversubscribing
// the machine. A Gate is safe for concurrent use; the zero value is not
// usable — construct with NewGate.
type Gate struct {
	slots chan struct{}
}

// NewGate returns a Gate admitting n concurrent holders (n < 1 is treated
// as 1).
func NewGate(n int) *Gate {
	if n < 1 {
		n = 1
	}
	return &Gate{slots: make(chan struct{}, n)}
}

// Acquire blocks until a slot is free or ctx is done, returning ctx's
// error in the latter case. Every successful Acquire must be paired with
// exactly one Release.
func (g *Gate) Acquire(ctx context.Context) error {
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ErrAcquireTimeout reports that AcquireWithin gave up waiting for a
// slot before its deadline. Callers distinguish it from ctx errors: the
// gate is merely saturated, the system is not shutting down.
var ErrAcquireTimeout = errors.New("exp: gate acquire timed out")

// AcquireWithin is Acquire bounded by a deadline: it blocks until a slot
// frees, ctx is done, or d elapses (returning ErrAcquireTimeout). d <= 0
// means no deadline. The simulation service uses it so a job with a
// --job-timeout budget cannot burn that whole budget queued behind the
// gate.
func (g *Gate) AcquireWithin(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return g.Acquire(ctx)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return ErrAcquireTimeout
	}
}

// Release frees a slot taken by Acquire or AcquireWithin. Releasing more
// than was acquired panics — it is always a caller bug.
func (g *Gate) Release() {
	select {
	case <-g.slots:
	default:
		panic("exp: Gate.Release without Acquire")
	}
}

// TrialSeed derives the RNG seed for one trial of a campaign. Seeding by
// offset keeps every trial's stream independent of worker count and
// schedule while staying reproducible from the single campaign seed.
func TrialSeed(base int64, trial int) int64 { return base + int64(trial) }

// StreamSeed derives an independent seed for a named random stream from a
// single base seed: the stream name is hashed (FNV-1a) into the base and
// the result is avalanched (SplitMix64 finalizer) so even adjacent bases
// or similar names land far apart. Keyed streams are how subsystems stay
// decoupled under one campaign seed — the load harness gives every
// simulated client (and every payload-uniquifying draw) its own stream,
// so adding draw sites to one client never perturbs another and the
// generated schedule is bit-identical for any worker count.
func StreamSeed(base int64, stream string) int64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	x := uint64(base) ^ h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}

// ShardSeed derives an independent seed for one shard of a partitioned
// workload from the parent stream's seed. It is StreamSeed keyed by the
// shard index ("shard/<i>"), so sibling shards get decorrelated streams
// and adding draw sites inside one shard never perturbs another — the
// PartitionedRNG discipline. Shard seeds exist for shard-local auxiliary
// draws only (dispatch jitter, worker picks); trial results must keep
// deriving from TrialSeed on the campaign seed, which is what makes any
// partition of the trial space merge bit-identically with a
// single-process run.
func ShardSeed(parent int64, shard int) int64 {
	return StreamSeed(parent, fmt.Sprintf("shard/%d", shard))
}

// Run executes fn(ctx, trial) for every trial in [0, trials) on a pool of
// workers (see Workers for how the count is resolved) and returns the
// results indexed by trial. All trials run to completion even when some
// fail; the error of the lowest-indexed failing trial is returned, so the
// reported error is as deterministic as the results.
//
// Cancellation is cooperative: no new trial starts once ctx is done, the
// trial function receives ctx so long-running trials can stop
// mid-flight, and a cancelled pool returns ctx's error (taking precedence
// over per-trial errors, which on cancellation are expected casualties
// rather than results). A panicking trial does not kill its worker
// goroutine (or the process): the panic is converted into that trial's
// error, so one poisoned trial fails one run while every other trial
// completes.
func Run[T any](ctx context.Context, workers, trials int, fn func(ctx context.Context, trial int) (T, error)) ([]T, error) {
	if trials <= 0 {
		return nil, nil
	}
	results := make([]T, trials)
	errs := make([]error, trials)
	call := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = fmt.Errorf("exp: trial %d panicked: %v", i, r)
			}
		}()
		results[i], errs[i] = fn(ctx, i)
	}
	workers = Workers(workers)
	if workers > trials {
		workers = trials
	}
	if workers == 1 {
		for i := 0; i < trials && ctx.Err() == nil; i++ {
			call(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					i := int(next.Add(1)) - 1
					if i >= trials {
						return
					}
					call(i)
				}
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// opFunc runs op i with sp as its root span and returns a check to run
// after the op's timer stops (output verification is not op latency).
type opFunc func(ctx context.Context, i int, sp spanRef) (check func() error, err error)

// closedLoop runs callers goroutines, each issuing its next op only when
// the previous one completes, until d has elapsed. next numbers ops across
// phases, so inputs keep cycling where the previous phase stopped.
func closedLoop(ctx context.Context, callers int, d time.Duration, tr *tracer, next *atomic.Int64, op opFunc) (*phase, error) {
	p := &phase{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				sp := tr.newOp(t0)
				check, err := op(ctx, i, sp)
				lat := time.Since(t0)
				sp.end()
				if err == nil && check != nil {
					err = check()
				}
				if ctx.Err() != nil {
					return // cancelled mid-op: neither a sample nor a failure
				}
				mu.Lock()
				p.attempted++
				if err != nil {
					p.fail(fmt.Sprintf("op %d: %v", i, err))
				} else {
					p.completed++
					p.lat = append(p.lat, lat)
					p.doneAt = append(p.doneAt, time.Since(start))
				}
				mu.Unlock()
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
	return p, nil
}

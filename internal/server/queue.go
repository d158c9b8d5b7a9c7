package server

import (
	"context"
	"fmt"
	"sync"
)

// laneQueue is the job queue behind the dispatcher: three strict
// priority lanes (high, normal, low) replacing the original pure FIFO
// channel. Submissions pick a lane with the X-Priority header (default
// normal); the dispatcher always drains higher lanes first and keeps
// FIFO order within a lane, so multi-tenant traffic can express urgency
// without a scheduler — latency-sensitive smoke campaigns overtake bulk
// sweeps, and equal-priority work keeps the original ordering
// guarantees. The depth bound spans all lanes together: backpressure
// semantics (429 + Retry-After past the configured depth) are unchanged
// from the FIFO era.
type laneQueue struct {
	mu    sync.Mutex
	lanes [laneCount][]*job
	n     int
	depth int
	// wake nudges the dispatcher when work arrives; capacity one — a
	// buffered token is at most a spurious scan, never a lost wakeup,
	// because pop re-scans the lanes before ever blocking.
	wake chan struct{}
}

// Priority lanes, drain order. laneNormal is the default.
const (
	laneHigh = iota
	laneNormal
	laneLow
	laneCount
)

// laneNames maps X-Priority header values to lanes.
var laneNames = map[string]int{"high": laneHigh, "normal": laneNormal, "low": laneLow}

// parseLane maps an X-Priority header value to its lane (empty means
// normal).
func parseLane(header string) (int, error) {
	if header == "" {
		return laneNormal, nil
	}
	lane, ok := laneNames[header]
	if !ok {
		return 0, fmt.Errorf("unknown priority %q (known: high, normal, low)", header)
	}
	return lane, nil
}

// laneName renders a lane for status payloads.
func laneName(lane int) string {
	switch lane {
	case laneHigh:
		return "high"
	case laneLow:
		return "low"
	default:
		return "normal"
	}
}

// newLaneQueue builds a queue admitting depth jobs across all lanes.
func newLaneQueue(depth int) *laneQueue {
	return &laneQueue{depth: depth, wake: make(chan struct{}, 1)}
}

// push enqueues a job on its lane, reporting false when the queue is at
// depth.
func (q *laneQueue) push(j *job) bool {
	q.mu.Lock()
	if q.n >= q.depth {
		q.mu.Unlock()
		return false
	}
	q.lanes[j.lane] = append(q.lanes[j.lane], j)
	q.n++
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
	return true
}

// pushReplay enqueues a journal-replayed job on its lane, ignoring the
// depth bound: every replayed job held a queue slot when it was first
// accepted, and boot-time replay finishes before the listener opens, so
// the bound's backpressure purpose doesn't apply yet. Within a lane,
// replay submits in original sequence order, so FIFO order — and
// therefore the strict-priority drain order — survives the restart.
func (q *laneQueue) pushReplay(j *job) {
	q.mu.Lock()
	q.lanes[j.lane] = append(q.lanes[j.lane], j)
	q.n++
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// pop removes the highest-priority oldest job, blocking until one
// arrives or ctx is done (then nil).
func (q *laneQueue) pop(ctx context.Context) *job {
	for {
		q.mu.Lock()
		for lane := range q.lanes {
			if len(q.lanes[lane]) == 0 {
				continue
			}
			j := q.lanes[lane][0]
			q.lanes[lane] = q.lanes[lane][1:]
			q.n--
			q.mu.Unlock()
			return j
		}
		q.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil
		case <-q.wake:
		}
	}
}

// remove takes j out of its lane, reporting whether it was still there
// (the dispatcher may already have popped it; single-flight followers
// never enter a lane).
func (q *laneQueue) remove(j *job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, qj := range q.lanes[j.lane] {
		if qj == j {
			q.lanes[j.lane] = append(q.lanes[j.lane][:i], q.lanes[j.lane][i+1:]...)
			q.n--
			return true
		}
	}
	return false
}

// len reports queued jobs across all lanes.
func (q *laneQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.n
}

// capacity reports the configured depth.
func (q *laneQueue) capacity() int { return q.depth }

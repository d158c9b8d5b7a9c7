// Package sim provides the deterministic discrete-event kernel that drives
// every simulation in this repository — the substrate under the whole
// Section V evaluation rather than any single paper artifact. Time is
// measured in clock cycles of the NoC clock domain (uint64). Events
// scheduled for the same cycle fire in scheduling order, so a run is fully
// reproducible: the kernel itself draws no random numbers, and models that
// need randomness seed their own sources.
package sim

import "errors"

// ErrStopped is returned by Run when the kernel was stopped explicitly
// before the horizon was reached.
var ErrStopped = errors.New("sim: stopped")

// Event is a callback scheduled to fire at a specific cycle.
type Event func()

type scheduledEvent struct {
	at  uint64
	seq uint64 // tie-break: FIFO among same-cycle events
	fn  Event
}

// before orders events by (at, seq). seq is unique, so the order is total
// and any binary heap over it pops the same sequence.
func (e *scheduledEvent) before(o *scheduledEvent) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// Kernel is a discrete-event simulation kernel. The zero value is not
// usable; construct with NewKernel.
type Kernel struct {
	now uint64
	seq uint64
	// queue is a binary min-heap on (at, seq), held by value so scheduling
	// allocates nothing once the slice has grown to the run's peak.
	queue   []scheduledEvent
	stopped bool
}

// NewKernel returns an empty kernel at cycle 0. Its event order depends
// only on the schedule, so the same schedule always fires identically.
func NewKernel() *Kernel { return &Kernel{} }

// Reset returns k to the state NewKernel returns — cycle 0, no events —
// keeping the queue's storage for the next run.
func (k *Kernel) Reset() {
	clear(k.queue)
	*k = Kernel{queue: k.queue[:0]}
}

// Now returns the current simulation cycle.
func (k *Kernel) Now() uint64 { return k.now }

// Pending reports the number of events still queued.
func (k *Kernel) Pending() int { return len(k.queue) }

// Schedule enqueues fn to fire delay cycles from now. A zero delay fires
// later in the current cycle, after all previously scheduled events for
// this cycle.
func (k *Kernel) Schedule(delay uint64, fn Event) {
	k.push(k.now+delay, fn)
}

// ScheduleAt enqueues fn for an absolute cycle. Scheduling in the past is
// coerced to the current cycle.
func (k *Kernel) ScheduleAt(cycle uint64, fn Event) {
	if cycle < k.now {
		cycle = k.now
	}
	k.push(cycle, fn)
}

// push adds fn at cycle at and sifts it up the heap.
func (k *Kernel) push(at uint64, fn Event) {
	k.seq++
	k.queue = append(k.queue, scheduledEvent{at: at, seq: k.seq, fn: fn})
	q := k.queue
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q[i].before(&q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// pop removes and returns the earliest event.
func (k *Kernel) pop() scheduledEvent {
	q := k.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = scheduledEvent{} // drop the callback for the collector
	q = q[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && q[r].before(&q[m]) {
			m = r
		}
		if !q[m].before(&q[i]) {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	k.queue = q
	return top
}

// Stop makes the current Run return after the in-flight event completes.
func (k *Kernel) Stop() { k.stopped = true }

// Run executes events until the queue drains or the horizon cycle is
// passed (events at cycle == horizon still fire). It returns ErrStopped if
// Stop was called, otherwise nil.
func (k *Kernel) Run(horizon uint64) error {
	k.stopped = false
	for len(k.queue) > 0 {
		if k.queue[0].at > horizon {
			k.now = horizon
			return nil
		}
		next := k.pop()
		k.now = next.at
		next.fn()
		if k.stopped {
			return ErrStopped
		}
	}
	if k.now < horizon {
		k.now = horizon
	}
	return nil
}

// Drain executes all remaining events regardless of cycle. It returns
// ErrStopped if Stop was called.
func (k *Kernel) Drain() error {
	k.stopped = false
	for len(k.queue) > 0 {
		next := k.pop()
		k.now = next.at
		next.fn()
		if k.stopped {
			return ErrStopped
		}
	}
	return nil
}

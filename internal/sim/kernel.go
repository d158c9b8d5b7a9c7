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

type scheduledEvent[E any] struct {
	at  uint64
	seq uint64 // tie-break: FIFO among same-cycle events
	ev  E
}

// before orders events by (at, seq). seq is unique, so the order is total
// and any binary heap over it pops the same sequence.
func (e *scheduledEvent[E]) before(o *scheduledEvent[E]) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// Kernel is a discrete-event simulation kernel over events of type E:
// plain records that Run and Drain hand to a fire function, so a model
// schedules its steps as data rather than as callbacks. The zero value is
// an empty kernel at cycle 0.
type Kernel[E any] struct {
	now uint64
	seq uint64
	// queue is a binary min-heap on (at, seq), held by value so scheduling
	// allocates nothing once the slice has grown to the run's peak.
	queue   []scheduledEvent[E]
	stopped bool
}

// Reset returns k to the zero state — cycle 0, no events — keeping the
// queue's storage for the next run.
func (k *Kernel[E]) Reset() {
	clear(k.queue)
	*k = Kernel[E]{queue: k.queue[:0]}
}

// Now returns the current simulation cycle.
func (k *Kernel[E]) Now() uint64 { return k.now }

// Pending reports the number of events still queued.
func (k *Kernel[E]) Pending() int { return len(k.queue) }

// Schedule enqueues ev to fire delay cycles from now. A zero delay fires
// later in the current cycle, after all previously scheduled events for
// this cycle.
func (k *Kernel[E]) Schedule(delay uint64, ev E) {
	k.push(k.now+delay, ev)
}

// ScheduleAt enqueues ev for an absolute cycle. Scheduling in the past is
// coerced to the current cycle.
func (k *Kernel[E]) ScheduleAt(cycle uint64, ev E) {
	if cycle < k.now {
		cycle = k.now
	}
	k.push(cycle, ev)
}

// push adds ev at cycle at and sifts it up the heap.
func (k *Kernel[E]) push(at uint64, ev E) {
	k.seq++
	k.queue = append(k.queue, scheduledEvent[E]{at: at, seq: k.seq, ev: ev})
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
func (k *Kernel[E]) pop() scheduledEvent[E] {
	q := k.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = scheduledEvent[E]{} // drop what the event references, for the collector
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
func (k *Kernel[E]) Stop() { k.stopped = true }

// Run fires events through fire until the queue drains or the horizon
// cycle is passed (events at cycle == horizon still fire). It returns
// ErrStopped if Stop was called, otherwise nil.
func (k *Kernel[E]) Run(horizon uint64, fire func(E)) error {
	k.stopped = false
	for len(k.queue) > 0 {
		if k.queue[0].at > horizon {
			k.now = horizon
			return nil
		}
		next := k.pop()
		k.now = next.at
		fire(next.ev)
		if k.stopped {
			return ErrStopped
		}
	}
	if k.now < horizon {
		k.now = horizon
	}
	return nil
}

// Drain fires all remaining events through fire regardless of cycle. It
// returns ErrStopped if Stop was called.
func (k *Kernel[E]) Drain(fire func(E)) error {
	k.stopped = false
	for len(k.queue) > 0 {
		next := k.pop()
		k.now = next.at
		fire(next.ev)
		if k.stopped {
			return ErrStopped
		}
	}
	return nil
}

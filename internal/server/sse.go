package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the live-progress side of the service: every job owns an
// eventLog that buffers its typed events (state transitions, experiment
// lifecycle, per-epoch samples bridged from the pkg/htsim Observer API),
// and GET /v1/jobs/{id}/events replays the buffer and then streams new
// events as Server-Sent Events until the job finishes or the client
// disconnects.
//
// The fan-out is hardened against misbehaving consumers: a subscriber
// that cannot keep up has its oldest buffered events dropped (counted in
// /v1/metrics as sse_events_dropped) instead of being disconnected or —
// worse — allowed to stall the simulation goroutines publishing into the
// log. Event ids are monotonic, so a consumer sees the gap and can
// reconnect with a Last-Event-ID header to replay what the log still
// buffers; the stream opens with an SSE `retry:` hint so EventSource
// clients back off sanely between reconnects. Subscriber slots are
// released on every exit path (client disconnect, injected write fault,
// log close), which the leak test pins at exactly zero residents.

// event is one Server-Sent Event, pre-rendered at publish time: id is
// the monotonically increasing sequence number and wire is the complete
// `id:`/`event:`/`data:` frame. Rendering once in publish means a
// fan-out to N subscribers costs one JSON marshal and one frame format
// total — each subscriber goroutine just writes the shared bytes (the
// slice is never mutated after publish, so sharing is safe).
type event struct {
	id   int
	wire []byte
}

// maxBufferedEvents caps an eventLog's replay buffer. A paper-scale
// campaign streams tens of thousands of epoch samples; the buffer keeps
// the most recent window and late subscribers miss the oldest events
// (their ids reveal the gap).
const maxBufferedEvents = 8192

// defaultSubscriberBuffer is each subscriber's channel capacity when the
// server options don't override it. A consumer that falls further behind
// than this starts losing its oldest buffered events (drop-oldest),
// never stalling the publisher.
const defaultSubscriberBuffer = 1024

// retryHintMillis is the SSE `retry:` reconnection hint sent at stream
// start: how long a disconnected client should wait before dialling
// back.
const retryHintMillis = 2000

// eventLog buffers a job's events for replay and fans new events out to
// live subscribers. Publishing never blocks on slow consumers.
type eventLog struct {
	mu     sync.Mutex
	next   int
	events []event
	subs   map[int]chan event
	nextID int
	closed bool
	// buffer is each subscriber's channel capacity; dropped counts
	// drop-oldest evictions across all subscribers (shared with the
	// service-wide metric, never nil).
	buffer  int
	dropped *atomic.Int64
}

// newEventLog returns an empty open log. buffer < 1 takes the default
// subscriber capacity; dropped may be nil (a private counter is used).
func newEventLog(buffer int, dropped *atomic.Int64) *eventLog {
	if buffer < 1 {
		buffer = defaultSubscriberBuffer
	}
	if dropped == nil {
		dropped = new(atomic.Int64)
	}
	return &eventLog{subs: make(map[int]chan event), buffer: buffer, dropped: dropped}
}

// publish appends one event (marshalling v as its JSON payload) and wakes
// subscribers. A subscriber whose buffer is full loses its oldest
// buffered event to make room (drop-oldest, counted); publishing never
// blocks and never disconnects. Publishing on a closed log is a no-op.
func (l *eventLog) publish(name string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		// Payloads are plain structs assembled here; a marshal failure is a
		// programming error surfaced in the stream rather than hidden.
		data = []byte(fmt.Sprintf("{\"error\":%q}", err.Error()))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	ev := event{id: l.next, wire: []byte(fmt.Sprintf("id: %d\nevent: %s\ndata: %s\n\n", l.next, name, data))}
	l.next++
	l.events = append(l.events, ev)
	if len(l.events) > maxBufferedEvents {
		l.events = l.events[len(l.events)-maxBufferedEvents:]
	}
	for _, ch := range l.subs {
		select {
		case ch <- ev:
			continue
		default:
		}
		// Full buffer: evict the subscriber's oldest event to make room.
		// The receives/sends race benignly with the consumer draining —
		// whichever side wins, the new event lands or is counted dropped.
		select {
		case <-ch:
			l.dropped.Add(1)
		default:
		}
		select {
		case ch <- ev:
		default:
			l.dropped.Add(1)
		}
	}
}

// close seals the log: subscribers' channels are closed after the replay
// buffer they already received, and future subscribes replay then end
// immediately.
func (l *eventLog) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	for id, ch := range l.subs {
		close(ch)
		delete(l.subs, id)
	}
}

// subscribe returns the buffered events with id > after (-1 replays
// everything the log still holds — Last-Event-ID resume passes the last
// id the client saw), a channel of subsequent events (closed when the
// log closes), and a cancel function the subscriber must call when done.
//
// A subscriber to a sealed log gets its replay and the one shared closed
// channel, so a late subscription allocates only its replay.
func (l *eventLog) subscribe(after int) (replay []event, ch <-chan event, cancel func()) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Events are held in id order: the replay is a suffix.
	first := len(l.events)
	for first > 0 && l.events[first-1].id > after {
		first--
	}
	if first < len(l.events) {
		replay = slices.Clone(l.events[first:])
	}
	if l.closed {
		return replay, sealedEvents, func() {}
	}
	c := make(chan event, l.buffer)
	id := l.nextID
	l.nextID++
	l.subs[id] = c
	return replay, c, func() {
		l.mu.Lock()
		defer l.mu.Unlock()
		if _, ok := l.subs[id]; ok {
			close(c)
			delete(l.subs, id)
		}
	}
}

// sealedEvents is the channel every subscriber of a sealed log receives:
// closed, and never holding an event.
var sealedEvents = func() chan event {
	c := make(chan event)
	close(c)
	return c
}()

// subscribers reports the live subscriber count — the leak test's probe.
func (l *eventLog) subscribers() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.subs)
}

// writeEvent emits one pre-rendered event frame, firing the sse.write
// fault point first so chaos runs can sever or stall individual streams.
// Each write runs under its own deadline (Options.SSEWriteTimeout) via
// the ResponseController: a subscriber whose TCP window has been stuck
// longer than the timeout gets a write error and is disconnected,
// instead of parking this goroutine (and its subscriber slot) forever
// on an unacknowledged socket. The deadline is per-frame, not
// per-stream — an idle but healthy subscriber can stay connected for
// hours.
func (s *Server) writeEvent(w http.ResponseWriter, rc *http.ResponseController, r *http.Request, ev event) error {
	if err := s.faults.Fire(r.Context(), "sse.write"); err != nil {
		return err
	}
	if d := s.opts.SSEWriteTimeout; d > 0 {
		// ErrNotSupported (e.g. a bare httptest recorder) downgrades to an
		// unbounded write rather than killing the stream.
		if err := rc.SetWriteDeadline(time.Now().Add(d)); err != nil && !errors.Is(err, http.ErrNotSupported) {
			return err
		}
	}
	_, err := w.Write(ev.wire)
	return err
}

// lastEventID parses the SSE resume header; absent or malformed means
// "replay everything".
func lastEventID(r *http.Request) int {
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if id, err := strconv.Atoi(v); err == nil {
			return id
		}
	}
	return -1
}

// handleEvents streams a job's event log as Server-Sent Events: a
// reconnect backoff hint, then the buffered history (everything after
// the client's Last-Event-ID, when sent), then live events until the job
// finishes or the client disconnects. The deferred cancel releases the
// subscriber slot on every exit path — write failure, injected fault, or
// context cancellation — so disconnected watchers never accumulate.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.lookup(r.PathValue("id"))
	if j == nil {
		http.Error(w, "unknown job", http.StatusNotFound)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	fmt.Fprintf(w, "retry: %d\n\n", retryHintMillis)
	replay, ch, cancel := j.events.subscribe(lastEventID(r))
	defer cancel()
	for _, ev := range replay {
		if err := s.writeEvent(w, rc, r, ev); err != nil {
			return
		}
	}
	fl.Flush()
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return
			}
			if err := s.writeEvent(w, rc, r, ev); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

package main

import (
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// This file is the traced pass's span recorder. Spans are recorded from
// the benchmark's own files around each layer call (op → BuildTables →
// experiment, op → RunPairContext → epoch, op → POST/SSE with the
// server's /trace tree grafted under the op), kept in memory, and written
// out when the benchmark ends.

// spanRec is one recorded span. Times are nanoseconds since the tracer
// started; Parent 0 marks an op's root span.
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans for one traced pass. A nil *tracer records nothing,
// which is how the untraced pass runs the same code.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []spanRec
	nextOp int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef names one open span. The zero value (from a nil tracer) makes
// every method a no-op.
type spanRef struct {
	t  *tracer
	id int
	op int
}

// newOp opens the root span of a new op, starting at start (an open-loop
// op starts at its due time, not when a generator picked it up).
func (t *tracer) newOp(start time.Time) spanRef {
	if t == nil {
		return spanRef{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp++
	return t.addLocked(0, t.nextOp, "op", start, time.Time{})
}

// addLocked appends a span; t.mu held. A zero end leaves it open.
func (t *tracer) addLocked(parent, op int, name string, start, end time.Time) spanRef {
	rec := spanRec{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: int64(start.Sub(t.t0))}
	if !end.IsZero() {
		rec.End = int64(end.Sub(t.t0))
	}
	t.spans = append(t.spans, rec)
	return spanRef{t: t, id: rec.ID, op: op}
}

// child opens a span under s, starting now.
func (s spanRef) child(name string) spanRef { return s.childAt(name, time.Now()) }

// childAt opens a span under s at start.
func (s spanRef) childAt(name string, start time.Time) spanRef {
	if s.t == nil {
		return spanRef{}
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	return s.t.addLocked(s.id, s.op, name, start, time.Time{})
}

// span records a finished span under s.
func (s spanRef) span(name string, start, end time.Time) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.t.addLocked(s.id, s.op, name, start, end)
}

// end closes s now.
func (s spanRef) end() { s.endAt(time.Now()) }

// endAt closes s at t.
func (s spanRef) endAt(at time.Time) {
	if s.t == nil {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.t.spans[s.id-1].End = int64(at.Sub(s.t.t0))
}

// graft attaches a server span tree (GET /v1/jobs/{id}/trace) under s,
// prefixing every span name with "server.". The server runs in this
// process, so its span times share the tracer's clock. Spans still in
// progress when the tree was fetched are skipped.
func (s spanRef) graft(n *obs.Node) {
	if s.t == nil || n == nil || n.InProgress {
		return
	}
	s.t.mu.Lock()
	end := n.Start.Add(time.Duration(n.DurationSeconds * float64(time.Second)))
	g := s.t.addLocked(s.id, s.op, "server."+n.Name, n.Start, end)
	s.t.mu.Unlock()
	for _, c := range n.Children {
		g.graft(c)
	}
}

// selfTimes attributes every instant of each op to the deepest span
// covering it (ties go to the span that started last) and returns the
// attributed time per span name, the total op time, and the op count. It
// is the usual self time — a span's duration minus what its children
// cover — extended to overlapping siblings (concurrent experiments,
// parallel shards, a server job straddling its POST and SSE), so the
// shares of one op always sum to its duration.
func (t *tracer) selfTimes() (self map[string]time.Duration, total time.Duration, ops int) {
	self = make(map[string]time.Duration)
	if t == nil {
		return self, 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	byOp := make(map[int][]spanRec)
	for _, s := range t.spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	for _, spans := range byOp {
		var root *spanRec
		depth := make(map[int]int, len(spans))
		byID := make(map[int]*spanRec, len(spans))
		for i := range spans {
			byID[spans[i].ID] = &spans[i]
			if spans[i].Parent == 0 {
				root = &spans[i]
			}
		}
		if root == nil || root.End <= root.Start {
			continue // an op that never finished
		}
		var depthOf func(s *spanRec) int
		depthOf = func(s *spanRec) int {
			if d, ok := depth[s.ID]; ok {
				return d
			}
			d := 0
			if p := byID[s.Parent]; p != nil {
				d = depthOf(p) + 1
			}
			depth[s.ID] = d
			return d
		}
		cuts := []int64{root.Start, root.End}
		for _, s := range spans {
			for _, c := range []int64{s.Start, s.End} {
				if c > root.Start && c < root.End {
					cuts = append(cuts, c)
				}
			}
		}
		sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
		for i := 0; i+1 < len(cuts); i++ {
			a, b := cuts[i], cuts[i+1]
			if b == a {
				continue
			}
			best := root
			for k := range spans {
				s := &spans[k]
				if s.End <= s.Start || s.Start > a || s.End < b {
					continue
				}
				if d, bd := depthOf(s), depthOf(best); d > bd || (d == bd && s.Start > best.Start) {
					best = s
				}
			}
			self[best.Name] += time.Duration(b - a)
		}
		total += time.Duration(root.End - root.Start)
		ops++
	}
	return self, total, ops
}

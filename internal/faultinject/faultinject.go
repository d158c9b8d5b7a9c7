// Package faultinject is the deterministic fault-injection registry
// behind the service's chaos testing. Production code declares named
// fault points at the places failures can really happen — disk reads in
// the result cache (`cache.disk.read`), the job execution path
// (`job.run`), SSE writes (`sse.write`), queue admission (`queue.admit`)
// — and a Set, parsed from a compact spec string (the `HTSERVED_FAULTS`
// environment variable or a server option), decides per hit whether to
// inject a failure. Four modes cover the failure classes the resilience
// layer must survive:
//
//   - error: the point returns an injected error
//   - panic: the point panics (recovery paths must contain it)
//   - latency: the point stalls for a configurable delay (context-aware)
//   - partial-write: an io.Writer silently truncates after N bytes,
//     modelling torn writes and full disks
//
// The spec grammar is `point:mode[:opt=value]...` with rules joined by
// ";" and an optional leading `seed=N`:
//
//	HTSERVED_FAULTS="seed=7;job.run:panic:times=1;cache.disk.write:partial-write:bytes=32"
//
// Options per rule: `p=0.5` (fire probability, decided by a seeded,
// deterministic RNG), `every=3` (fire on every 3rd hit), `after=2` (skip
// the first 2 hits), `times=1` (stop after 1 fire), `delay=50ms`
// (latency mode), `bytes=64` (partial-write mode). Every decision is a
// pure function of the seed and the hit sequence, so a chaos run is
// replayable. A nil *Set is inert: Fire returns nil and Writer returns
// the writer unchanged, so production paths pay one nil check when
// injection is off.
package faultinject

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/exp"
)

// Mode is one injected failure class.
type Mode string

// The four failure classes a rule can inject.
const (
	ModeError        Mode = "error"
	ModePanic        Mode = "panic"
	ModeLatency      Mode = "latency"
	ModePartialWrite Mode = "partial-write"
)

// EnvVar is the environment variable FromEnv reads the spec from.
const EnvVar = "HTSERVED_FAULTS"

// Error is the error type every injected error-mode failure carries, so
// callers (and tests) can tell an injected fault from an organic one.
type Error struct {
	Point string
	Hit   int // 1-based hit ordinal that fired
}

// Error renders the injected failure.
func (e *Error) Error() string {
	return fmt.Sprintf("faultinject: injected error at %s (hit %d)", e.Point, e.Hit)
}

// PanicValue is the value injected panics carry; recovery sites can
// type-switch on it to label recovered chaos distinctly.
type PanicValue struct {
	Point string
	Hit   int
}

// String renders the panic payload.
func (p PanicValue) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s (hit %d)", p.Point, p.Hit)
}

// rule is one parsed injection rule with its mutable hit state.
type rule struct {
	point string
	mode  Mode
	p     float64       // fire probability (default 1)
	every int           // fire on every Nth hit (default 1)
	after int           // skip the first N hits
	times int           // stop after N fires (0 = unlimited)
	delay time.Duration // latency mode stall
	bytes int           // partial-write budget

	hits  int
	fired int
}

// Set is a parsed collection of injection rules. The zero value is not
// usable — construct with Parse or FromEnv. A nil *Set is inert.
type Set struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules map[string][]*rule
}

// Parse builds a Set from a spec string (see the package comment for the
// grammar). An empty spec yields a nil, inert Set.
func Parse(spec string) (*Set, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	seed := int64(1)
	s := &Set{rules: make(map[string][]*rule)}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if v, ok := strings.CutPrefix(part, "seed="); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad seed %q", v)
			}
			seed = n
			continue
		}
		r, err := parseRule(part)
		if err != nil {
			return nil, err
		}
		s.rules[r.point] = append(s.rules[r.point], r)
	}
	if len(s.rules) == 0 {
		return nil, nil
	}
	s.rng = rand.New(exp.NewSource(seed))
	return s, nil
}

// FromEnv parses the HTSERVED_FAULTS environment variable via getenv
// (pass os.Getenv); an unset or empty variable yields a nil, inert Set.
func FromEnv(getenv func(string) string) (*Set, error) {
	return Parse(getenv(EnvVar))
}

// parseRule parses one `point:mode[:opt=value]...` clause.
func parseRule(clause string) (*rule, error) {
	fields := strings.Split(clause, ":")
	if len(fields) < 2 {
		return nil, fmt.Errorf("faultinject: rule %q is not point:mode[:opt=value]", clause)
	}
	r := &rule{point: fields[0], p: 1, every: 1, delay: 25 * time.Millisecond, bytes: 64}
	if r.point == "" {
		return nil, fmt.Errorf("faultinject: rule %q names no point", clause)
	}
	switch Mode(fields[1]) {
	case ModeError, ModePanic, ModeLatency, ModePartialWrite:
		r.mode = Mode(fields[1])
	default:
		return nil, fmt.Errorf("faultinject: rule %q: unknown mode %q (known: error, panic, latency, partial-write)", clause, fields[1])
	}
	for _, opt := range fields[2:] {
		k, v, ok := strings.Cut(opt, "=")
		if !ok {
			return nil, fmt.Errorf("faultinject: rule %q: option %q is not key=value", clause, opt)
		}
		var err error
		switch k {
		case "p":
			r.p, err = strconv.ParseFloat(v, 64)
			if err == nil && (r.p < 0 || r.p > 1) {
				err = fmt.Errorf("outside [0, 1]")
			}
		case "every":
			r.every, err = positiveInt(v)
		case "after":
			r.after, err = strconv.Atoi(v)
		case "times":
			r.times, err = strconv.Atoi(v)
		case "delay":
			r.delay, err = time.ParseDuration(v)
		case "bytes":
			r.bytes, err = strconv.Atoi(v)
		default:
			err = fmt.Errorf("unknown option (known: p, every, after, times, delay, bytes)")
		}
		if err != nil {
			return nil, fmt.Errorf("faultinject: rule %q: option %q: %v", clause, opt, err)
		}
	}
	return r, nil
}

// positiveInt parses an integer that must be >= 1.
func positiveInt(v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err == nil && n < 1 {
		err = fmt.Errorf("must be >= 1")
	}
	return n, err
}

// decide records one hit against r and reports whether it fires; s.mu
// held.
func (s *Set) decide(r *rule) bool {
	r.hits++
	if r.hits <= r.after {
		return false
	}
	if r.times > 0 && r.fired >= r.times {
		return false
	}
	if (r.hits-r.after)%r.every != 0 {
		return false
	}
	if r.p < 1 && s.rng.Float64() >= r.p {
		return false
	}
	r.fired++
	return true
}

// Fire records one hit of a fault point and injects the first firing
// rule's failure: error mode returns an *Error, panic mode panics with a
// PanicValue, and latency mode stalls for the rule's delay (returning
// ctx's error if it is cancelled first). Partial-write rules are ignored
// here — they act (and count their hits) only through Writer, so a point
// carrying both kinds of rule keeps each cadence independent. Points
// with no matching rule — and any point on a nil Set — return nil with
// no overhead beyond the lookup.
func (s *Set) Fire(ctx context.Context, point string) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	var fired *rule
	var hit int
	for _, r := range s.rules[point] {
		if r.mode == ModePartialWrite {
			continue
		}
		if s.decide(r) {
			fired, hit = r, r.hits
			break
		}
	}
	s.mu.Unlock()
	if fired == nil {
		return nil
	}
	switch fired.mode {
	case ModeError:
		return &Error{Point: point, Hit: hit}
	case ModePanic:
		panic(PanicValue{Point: point, Hit: hit})
	default: // ModeLatency
		t := time.NewTimer(fired.delay)
		defer t.Stop()
		select {
		case <-t.C:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Writer records one hit of a fault point and, when a partial-write rule
// fires, wraps w so it silently truncates after the rule's byte budget —
// the write reports success but the tail never lands, modelling torn
// writes. Otherwise (including on a nil Set) w is returned unchanged.
func (s *Set) Writer(point string, w io.Writer) io.Writer {
	if s == nil {
		return w
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.rules[point] {
		if r.mode != ModePartialWrite {
			continue
		}
		if s.decide(r) {
			return &truncatingWriter{w: w, budget: r.bytes}
		}
	}
	return w
}

// Counts snapshots how many times each point has fired, keyed by point
// name — the observability hook /v1/metrics exposes. Nil Sets report
// nil.
func (s *Set) Counts() map[string]int64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.rules))
	for point, rules := range s.rules {
		var n int64
		for _, r := range rules {
			n += int64(r.fired)
		}
		out[point] = n
	}
	return out
}

// Total sums Counts across every point.
func (s *Set) Total() int64 {
	var n int64
	for _, v := range s.Counts() {
		n += v
	}
	return n
}

// Points lists the registered fault points, sorted.
func (s *Set) Points() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.rules))
	for p := range s.rules {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// truncatingWriter passes through the first budget bytes and silently
// swallows the rest, always reporting full success.
type truncatingWriter struct {
	w      io.Writer
	budget int
}

// Write forwards up to the remaining budget and lies about the rest.
func (t *truncatingWriter) Write(p []byte) (int, error) {
	if t.budget <= 0 {
		return len(p), nil
	}
	n := len(p)
	if n > t.budget {
		n = t.budget
	}
	if _, err := t.w.Write(p[:n]); err != nil {
		return 0, err
	}
	t.budget -= n
	return len(p), nil
}

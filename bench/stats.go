package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; xs need not be sorted. NaN for
// an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so a spread printed here matches the one the acceptance check computes.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of xs as a share of their median: the
// run-to-run noise a metric's bound is compared against. NaN for fewer
// than two values or a zero median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	med := median(xs)
	if med == 0 {
		return math.NaN()
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// phase is the outcome of one timed stretch of ops.
type phase struct {
	// lat holds the latency samples: every verified op's, and a shed
	// request's penalty; doneAt each sample's completion offset from the
	// phase start (to split the phase into windows).
	lat    []time.Duration
	doneAt []time.Duration
	// attempted counts ops, completed those that finished and verified,
	// failed those that did not verify; failures keeps the first few
	// verification errors.
	attempted, completed, failed int
	failures                     []string
	elapsed                      time.Duration
	// after is time spent once the phase's clock stopped: audits, trace
	// fetches, the rate ladder.
	after time.Duration
	// allocBytes is the process's TotalAlloc delta over the phase.
	allocBytes uint64
	// layer carries the workload's own per-layer metrics (traced pass).
	layer map[string]float64
	// info carries workload-specific figures for the result file and the
	// human report only (generator lag, ladder steps, per-kind latency).
	info map[string]any
}

// maxFailures bounds how many failure messages a phase keeps.
const maxFailures = 8

// fail records one verification failure.
func (p *phase) fail(msg string) {
	p.failed++
	if len(p.failures) < maxFailures {
		p.failures = append(p.failures, msg)
	}
}

// windows splits the phase's ops by completion time into n equal windows
// and returns each window's value of f; windows with fewer than two ops
// are skipped.
func (p *phase) windows(n int, f func(lat []time.Duration, span time.Duration) float64) []float64 {
	if p.elapsed <= 0 {
		return nil
	}
	w := p.elapsed / time.Duration(n)
	buckets := make([][]time.Duration, n)
	for i, at := range p.doneAt {
		k := int(at / w)
		if k >= n {
			k = n - 1
		}
		buckets[k] = append(buckets[k], p.lat[i])
	}
	var out []float64
	for _, b := range buckets {
		if len(b) >= 2 {
			out = append(out, f(b, w))
		}
	}
	return out
}

// Package histo provides log-bucketed histograms for latency recording:
// observations land in geometrically spaced buckets, so one fixed-size
// structure covers microseconds to minutes with constant relative error,
// quantiles (p50/p90/p99/p999) are estimated by interpolating inside the
// owning bucket, and the cumulative bucket counts render directly as a
// Prometheus histogram. Both sides of the serving benchmark use it: the
// load harness (internal/loadgen) records per-scenario client-side
// latencies, and the service metrics (internal/server) export the job
// duration histogram through /v1/metrics?format=prometheus — same
// bucketing rule, so the two distributions can be joined.
//
// A Histogram is not safe for concurrent use; callers either fill one
// from a single goroutine (the harness, after its timed phase) or guard it
// with the lock they already hold (the server's counter mutex).
package histo

import (
	"fmt"
	"math"
	"sort"
)

// Histogram counts observations in geometric buckets. Bucket i covers
// (bounds[i-1], bounds[i]]; one overflow bucket catches everything above
// the last bound (rendered as le="+Inf").
type Histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1; last is the overflow bucket
	total  uint64
	sum    float64
	min    float64
	max    float64
}

// Exponential builds a histogram with n geometric bucket upper bounds:
// start, start*factor, start*factor², … It panics on a non-positive
// start, a factor ≤ 1, or n < 1 — bucket layouts are compile-time
// decisions, not runtime inputs.
func Exponential(start, factor float64, n int) *Histogram {
	if start <= 0 || factor <= 1 || n < 1 {
		panic(fmt.Sprintf("histo: invalid layout (start %g, factor %g, n %d)", start, factor, n))
	}
	bounds := make([]float64, n)
	b := start
	for i := range bounds {
		bounds[i] = b
		b *= factor
	}
	return &Histogram{bounds: bounds, counts: make([]uint64, n+1)}
}

// NewLatency is the harness-side layout: ~19% relative resolution
// (factor 2^¼) over 94 buckets from 50µs to ≈8min, fine enough that a
// p999 read off the bucket edges stays within one bucket of the true
// order statistic.
func NewLatency() *Histogram { return Exponential(50e-6, math.Pow(2, 0.25), 94) }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.total++
	h.sum += v
	if h.total == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Min and Max return the exact observed extremes (0 when empty).
func (h *Histogram) Min() float64 { return h.min }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 { return h.max }

// Mean returns the exact arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Quantile estimates the q-quantile (q in [0,1]) by geometric
// interpolation inside the bucket holding the target rank, clamped to
// the observed min/max so estimates never leave the data's range.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.total)
	var cum float64
	for i, n := range h.counts {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if next >= rank {
			lo, hi := h.bucketRange(i)
			frac := (rank - cum) / float64(n)
			v := interpolate(lo, hi, frac)
			return math.Min(math.Max(v, h.min), h.max)
		}
		cum = next
	}
	return h.max
}

// bucketRange returns bucket i's value range, tightened by the observed
// extremes for the open-ended first and overflow buckets.
func (h *Histogram) bucketRange(i int) (lo, hi float64) {
	switch {
	case i == 0:
		return h.min, h.bounds[0]
	case i == len(h.bounds):
		return h.bounds[len(h.bounds)-1], h.max
	default:
		return h.bounds[i-1], h.bounds[i]
	}
}

// interpolate picks a point frac of the way from lo to hi, geometrically
// when both ends are positive (matching the log bucket spacing), linearly
// otherwise.
func interpolate(lo, hi, frac float64) float64 {
	if hi <= lo {
		return lo
	}
	if lo > 0 {
		return lo * math.Pow(hi/lo, frac)
	}
	return lo + (hi-lo)*frac
}

// Bucket is one cumulative Prometheus-style bucket: the count of
// observations ≤ Le.
type Bucket struct {
	Le    float64
	Count uint64
}

// Cumulative returns the cumulative bucket counts for every finite upper
// bound, in ascending order. The implicit le="+Inf" bucket is Count().
func (h *Histogram) Cumulative() []Bucket {
	out := make([]Bucket, len(h.bounds))
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i]
		out[i] = Bucket{Le: b, Count: cum}
	}
	return out
}

// Clone returns an independent copy (used to snapshot a histogram while
// holding its owner's lock, so rendering happens outside the lock).
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.bounds = append([]float64(nil), h.bounds...)
	c.counts = append([]uint64(nil), h.counts...)
	return &c
}

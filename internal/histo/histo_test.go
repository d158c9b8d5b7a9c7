package histo

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestObserveAndExactStats(t *testing.T) {
	h := NewLatency()
	for _, v := range []float64{0.001, 0.010, 0.100, 0.002} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if got, want := h.Sum(), 0.113; math.Abs(got-want) > 1e-12 {
		t.Errorf("sum = %g, want %g", got, want)
	}
	if h.Min() != 0.001 || h.Max() != 0.100 {
		t.Errorf("min/max = %g/%g, want 0.001/0.100", h.Min(), h.Max())
	}
	if got, want := h.Mean(), 0.113/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("mean = %g, want %g", got, want)
	}
}

// TestQuantileAccuracy checks estimated quantiles against the exact
// order statistics of a log-uniform sample: log bucketing bounds the
// relative error by one bucket factor (2^¼ ≈ 19%).
func TestQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := NewLatency()
	vals := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		v := math.Pow(10, -4+4*rng.Float64()) // 100µs .. 1s, log-uniform
		vals = append(vals, v)
		h.Observe(v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := vals[int(q*float64(len(vals)))-1]
		got := h.Quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 0.20 {
			t.Errorf("p%g = %g, exact %g (relative error %.1f%% > one bucket)", q*100, got, exact, rel*100)
		}
	}
	if h.Quantile(0) != h.Min() || h.Quantile(1) != h.Max() {
		t.Error("q=0/q=1 must clamp to observed extremes")
	}
}

func TestQuantileEmptyAndSingle(t *testing.T) {
	h := NewLatency()
	if h.Quantile(0.99) != 0 {
		t.Error("empty histogram quantile must be 0")
	}
	h.Observe(0.25)
	for _, q := range []float64{0.01, 0.5, 0.999} {
		if got := h.Quantile(q); got != 0.25 {
			t.Errorf("single-sample p%g = %g, want the sample (clamped)", q*100, got)
		}
	}
}

func TestCumulativeMatchesPrometheusContract(t *testing.T) {
	h := Exponential(0.001, 2, 4) // 1ms, 2ms, 4ms, 8ms
	for _, v := range []float64{0.0005, 0.001, 0.0015, 0.003, 0.050} {
		h.Observe(v)
	}
	buckets := h.Cumulative()
	wantLe := []float64{0.001, 0.002, 0.004, 0.008}
	wantCum := []uint64{2, 3, 4, 4} // le semantics: v <= bound; 0.050 only in +Inf
	for i, b := range buckets {
		if b.Le != wantLe[i] || b.Count != wantCum[i] {
			t.Errorf("bucket %d = {%g, %d}, want {%g, %d}", i, b.Le, b.Count, wantLe[i], wantCum[i])
		}
	}
	// Monotone non-decreasing, and +Inf (= Count) dominates every bucket.
	for i := 1; i < len(buckets); i++ {
		if buckets[i].Count < buckets[i-1].Count {
			t.Fatalf("cumulative counts decreased at bucket %d", i)
		}
	}
	if last := buckets[len(buckets)-1].Count; last > h.Count() {
		t.Fatalf("last bucket %d exceeds total %d", last, h.Count())
	}
}

func TestCloneIsIndependent(t *testing.T) {
	h := NewLatency()
	h.Observe(0.01)
	c := h.Clone()
	h.Observe(0.02)
	if c.Count() != 1 || h.Count() != 2 {
		t.Fatalf("clone shares state: clone %d, original %d", c.Count(), h.Count())
	}
}

func TestBadLayoutPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exponential(0, 2, 4) must panic")
		}
	}()
	Exponential(0, 2, 4)
}

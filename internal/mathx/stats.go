package mathx

import "math"

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// RSquared returns the coefficient of determination of predictions preds
// against observations obs. It returns 0 when obs is constant.
func RSquared(obs, preds []float64) float64 {
	if len(obs) != len(preds) || len(obs) == 0 {
		return 0
	}
	m := Mean(obs)
	var ssRes, ssTot float64
	for i := range obs {
		r := obs[i] - preds[i]
		ssRes += r * r
		d := obs[i] - m
		ssTot += d * d
	}
	if ssTot == 0 {
		return 0
	}
	return 1 - ssRes/ssTot
}

package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		give []float64
		want float64
	}{
		{name: "empty", give: nil, want: 0},
		{name: "single", give: []float64{4}, want: 4},
		{name: "several", give: []float64{1, 2, 3, 4}, want: 2.5},
		{name: "negative", give: []float64{-2, 2}, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.give); got != tt.want {
				t.Errorf("Mean(%v) = %v, want %v", tt.give, got, tt.want)
			}
		})
	}
}

func TestVariance(t *testing.T) {
	if got := Variance([]float64{1}); got != 0 {
		t.Errorf("Variance of single sample = %v, want 0", got)
	}
	if got := Variance([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
}

func TestStdDev(t *testing.T) {
	if got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %v, want 7", got)
	}
	if !math.IsInf(Max(nil), -1) {
		t.Error("Max(nil) should be -Inf")
	}
}

func TestRSquaredPerfect(t *testing.T) {
	obs := []float64{1, 2, 3}
	if got := RSquared(obs, obs); !almostEqual(got, 1, 1e-12) {
		t.Errorf("RSquared = %v, want 1", got)
	}
}

func TestRSquaredDegenerate(t *testing.T) {
	if got := RSquared([]float64{2, 2}, []float64{1, 3}); got != 0 {
		t.Errorf("RSquared constant obs = %v, want 0", got)
	}
}

// Property: variance is invariant under shift, scales quadratically.
func TestVarianceShiftScale(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 16)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		shifted := make([]float64, len(xs))
		scaled := make([]float64, len(xs))
		for i, x := range xs {
			shifted[i] = x + 100
			scaled[i] = 3 * x
		}
		v := Variance(xs)
		return almostEqual(Variance(shifted), v, 1e-8) && almostEqual(Variance(scaled), 9*v, 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFitOLSRecoversPlane(t *testing.T) {
	// y = 3a - 2b + 5
	var x [][]float64
	var y []float64
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		a, b := rng.Float64()*10, rng.Float64()*10
		x = append(x, []float64{a, b})
		y = append(y, 3*a-2*b+5)
	}
	res, err := FitOLS(x, y)
	if err != nil {
		t.Fatalf("FitOLS: %v", err)
	}
	if !almostEqual(res.Coeffs[0], 3, 1e-6) || !almostEqual(res.Coeffs[1], -2, 1e-6) || !almostEqual(res.Intercept, 5, 1e-6) {
		t.Errorf("fit = %+v, want coeffs [3 -2] intercept 5", res)
	}
	if !almostEqual(res.R2, 1, 1e-9) {
		t.Errorf("R2 = %v, want 1", res.R2)
	}
}

func TestFitOLSEmpty(t *testing.T) {
	if _, err := FitOLS(nil, nil); err == nil {
		t.Fatal("FitOLS(nil) should fail")
	}
}

func TestFitOLSRaggedRow(t *testing.T) {
	if _, err := FitOLS([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Fatal("FitOLS ragged rows should fail")
	}
}

func TestFitOLSPredict(t *testing.T) {
	res := &OLSResult{Coeffs: []float64{2, -1}, Intercept: 1}
	if got := res.Predict([]float64{3, 4}); got != 3 {
		t.Errorf("Predict = %v, want 3", got)
	}
}

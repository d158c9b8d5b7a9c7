package mathx

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// fromRows builds a matrix from equal-length row slices.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		for j, v := range r {
			m.Set(i, j, v)
		}
	}
	return m
}

func TestMatrixSetAt(t *testing.T) {
	m := NewMatrix(3, 4)
	m.Set(2, 3, 7.5)
	if m.At(2, 3) != 7.5 {
		t.Errorf("At(2,3) = %v, want 7.5", m.At(2, 3))
	}
	if m.At(0, 0) != 0 {
		t.Errorf("zero value not preserved")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestSolveLeastSquaresExact(t *testing.T) {
	// Square full-rank system: exact solution.
	a := fromRows([][]float64{{2, 0}, {0, 3}})
	x, err := SolveLeastSquares(a, []float64{4, 9})
	if err != nil {
		t.Fatalf("SolveLeastSquares: %v", err)
	}
	if !almostEqual(x[0], 2, 1e-9) || !almostEqual(x[1], 3, 1e-9) {
		t.Errorf("x = %v, want [2 3]", x)
	}
}

func TestSolveLeastSquaresOverdetermined(t *testing.T) {
	// y = 2t + 1 sampled with no noise; fit line through 4 points.
	a := fromRows([][]float64{{0, 1}, {1, 1}, {2, 1}, {3, 1}})
	x, err := SolveLeastSquares(a, []float64{1, 3, 5, 7})
	if err != nil {
		t.Fatalf("SolveLeastSquares: %v", err)
	}
	if !almostEqual(x[0], 2, 1e-9) || !almostEqual(x[1], 1, 1e-9) {
		t.Errorf("x = %v, want [2 1]", x)
	}
}

func TestSolveLeastSquaresSingular(t *testing.T) {
	a := fromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	if _, err := SolveLeastSquares(a, []float64{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveLeastSquaresUnderdetermined(t *testing.T) {
	a := NewMatrix(1, 2)
	if _, err := SolveLeastSquares(a, []float64{1}); !errors.Is(err, ErrDimension) {
		t.Fatalf("err = %v, want ErrDimension", err)
	}
}

func TestSolveLeastSquaresBadB(t *testing.T) {
	a := NewMatrix(3, 2)
	if _, err := SolveLeastSquares(a, []float64{1}); !errors.Is(err, ErrDimension) {
		t.Fatalf("err = %v, want ErrDimension", err)
	}
}

// Property: for any well-conditioned random system Ax = b with known x,
// SolveLeastSquares recovers x.
func TestSolveLeastSquaresRecoversKnownSolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 8, 3
		a := NewMatrix(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		// Diagonal boost keeps the system well conditioned.
		for j := 0; j < cols; j++ {
			a.Set(j, j, a.At(j, j)+5)
		}
		want := make([]float64, cols)
		for j := range want {
			want[j] = rng.NormFloat64()
		}
		b := make([]float64, rows)
		for i := range b {
			for j, x := range want {
				b[i] += a.At(i, j) * x
			}
		}
		got, err := SolveLeastSquares(a, b)
		if err != nil {
			return false
		}
		for j := range want {
			if !almostEqual(got[j], want[j], 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

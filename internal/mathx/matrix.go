// Package mathx provides the small stdlib-only numerical toolkit behind
// the paper's Section V-C attack-effect model: dense matrices and QR-based
// least squares for the Eqn 9 fit, plus the summary statistics the
// experiment tables report. It exists because the module is offline and
// may not depend on gonum; only the operations the repository actually
// needs are implemented.
package mathx

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	rows, cols int
	data       []float64
}

var (
	// ErrDimension is returned when matrix shapes are incompatible.
	ErrDimension = errors.New("mathx: incompatible dimensions")
	// ErrSingular is returned when a system is rank deficient.
	ErrSingular = errors.New("mathx: matrix is singular or rank deficient")
)

// NewMatrix allocates a rows×cols zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mathx: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.data[i*m.cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.data[i*m.cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// SolveLeastSquares solves min‖Ax−b‖₂ via Householder QR with column checks.
// A must have at least as many rows as columns and full column rank.
func SolveLeastSquares(a *Matrix, b []float64) ([]float64, error) {
	if a.rows != len(b) {
		return nil, fmt.Errorf("mathx: lstsq A is %dx%d, b has %d: %w", a.rows, a.cols, len(b), ErrDimension)
	}
	if a.rows < a.cols {
		return nil, fmt.Errorf("mathx: lstsq underdetermined %dx%d: %w", a.rows, a.cols, ErrDimension)
	}
	r := a.Clone()
	qtb := make([]float64, len(b))
	copy(qtb, b)

	// Householder transformations applied in place to r and qtb.
	for k := 0; k < r.cols; k++ {
		// Compute the norm of the k-th column below the diagonal.
		norm := 0.0
		for i := k; i < r.rows; i++ {
			norm = math.Hypot(norm, r.At(i, k))
		}
		if norm == 0 {
			return nil, fmt.Errorf("mathx: column %d: %w", k, ErrSingular)
		}
		if r.At(k, k) > 0 {
			norm = -norm
		}
		// v = x - norm·e1, normalised so v[k] = 1.
		vk := r.At(k, k) - norm
		v := make([]float64, r.rows-k)
		v[0] = 1
		for i := k + 1; i < r.rows; i++ {
			v[i-k] = r.At(i, k) / vk
		}
		beta := -vk / norm // 2/(vᵀv) compressed form

		// Apply H = I - beta·v·vᵀ to the trailing submatrix.
		for j := k; j < r.cols; j++ {
			s := 0.0
			for i := k; i < r.rows; i++ {
				s += v[i-k] * r.At(i, j)
			}
			s *= beta
			for i := k; i < r.rows; i++ {
				r.Set(i, j, r.At(i, j)-s*v[i-k])
			}
		}
		// Apply to qtb.
		s := 0.0
		for i := k; i < r.rows; i++ {
			s += v[i-k] * qtb[i]
		}
		s *= beta
		for i := k; i < r.rows; i++ {
			qtb[i] -= s * v[i-k]
		}
	}

	// Back substitution on the upper-triangular part.
	x := make([]float64, r.cols)
	for i := r.cols - 1; i >= 0; i-- {
		s := qtb[i]
		for j := i + 1; j < r.cols; j++ {
			s -= r.At(i, j) * x[j]
		}
		d := r.At(i, i)
		if math.Abs(d) < 1e-12 {
			return nil, fmt.Errorf("mathx: pivot %d too small: %w", i, ErrSingular)
		}
		x[i] = s / d
	}
	return x, nil
}

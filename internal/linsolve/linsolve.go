// Package linsolve provides a small dense linear-system solver
// (Gaussian elimination with partial pivoting). The LMO parameter
// estimation has closed-form solutions (paper eqs 8 and 11); this
// generic solver backs the estimators for cross-checking those closed
// forms and for fitting over-determined variants by normal equations.
package linsolve

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular reports a (numerically) singular system.
var ErrSingular = errors.New("linsolve: singular matrix")

// Solve solves A·x = b for square A, returning x. A and b are not
// modified. It returns ErrSingular when no pivot exceeds eps.
func Solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("linsolve: bad dimensions: %dx? matrix, %d rhs", n, len(b))
	}
	// Working copies.
	m := make([][]float64, n)
	for i := range a {
		if len(a[i]) != n {
			return nil, fmt.Errorf("linsolve: row %d has %d columns, want %d", i, len(a[i]), n)
		}
		m[i] = append([]float64(nil), a[i]...)
	}
	x := append([]float64(nil), b...)

	const eps = 1e-12
	for col := 0; col < n; col++ {
		// Partial pivoting: largest absolute value in the column.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < eps {
			return nil, ErrSingular
		}
		m[col], m[piv] = m[piv], m[col]
		x[col], x[piv] = x[piv], x[col]
		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			x[r] -= f * x[col]
		}
	}
	for col := n - 1; col >= 0; col-- {
		s := x[col]
		for c := col + 1; c < n; c++ {
			s -= m[col][c] * x[c]
		}
		x[col] = s / m[col][col]
	}
	return x, nil
}

// LeastSquares solves the over-determined system A·x ≈ b (rows ≥ cols)
// in the least-squares sense via the normal equations AᵀA·x = Aᵀb.
// Adequate for the small, well-conditioned systems the estimators
// produce.
func LeastSquares(a [][]float64, b []float64) ([]float64, error) {
	rows := len(a)
	if rows == 0 || len(b) != rows {
		return nil, fmt.Errorf("linsolve: bad dimensions")
	}
	cols := len(a[0])
	if cols == 0 || rows < cols {
		return nil, fmt.Errorf("linsolve: need rows >= cols > 0, have %dx%d", rows, cols)
	}
	ata := make([][]float64, cols)
	atb := make([]float64, cols)
	for i := 0; i < cols; i++ {
		ata[i] = make([]float64, cols)
	}
	for r := 0; r < rows; r++ {
		if len(a[r]) != cols {
			return nil, fmt.Errorf("linsolve: ragged matrix at row %d", r)
		}
		for i := 0; i < cols; i++ {
			atb[i] += a[r][i] * b[r]
			for j := 0; j < cols; j++ {
				ata[i][j] += a[r][i] * a[r][j]
			}
		}
	}
	return Solve(ata, atb)
}

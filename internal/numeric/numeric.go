// Package numeric provides the small dense linear-algebra and statistics
// routines the fitting code needs: Gaussian elimination, ordinary least
// squares via the normal equations, and goodness-of-fit summaries. Stdlib
// only; no external solvers.
package numeric

import (
	"fmt"
	"math"
)

// Solve solves the square linear system A·x = b by Gaussian elimination
// with partial pivoting. A and b are not modified.
func Solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	if n == 0 || len(b) != n {
		return nil, fmt.Errorf("numeric: system size mismatch (%d equations, %d rhs)", n, len(b))
	}
	// Work on copies.
	m := make([][]float64, n)
	for i := range a {
		if len(a[i]) != n {
			return nil, fmt.Errorf("numeric: row %d has %d columns, want %d", i, len(a[i]), n)
		}
		m[i] = append([]float64(nil), a[i]...)
		m[i] = append(m[i], b[i])
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[pivot][col]) {
				pivot = r
			}
		}
		if math.Abs(m[pivot][col]) < 1e-12 {
			return nil, fmt.Errorf("numeric: singular system (pivot %d ~ 0)", col)
		}
		m[col], m[pivot] = m[pivot], m[col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= float64(f * m[col][c])
			}
		}
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		x[i] = m[i][n] / m[i][i]
	}
	return x, nil
}

// LeastSquares fits coefficients β minimizing ‖X·β − y‖² via the normal
// equations XᵀX·β = Xᵀy. X has one row per observation.
func LeastSquares(x [][]float64, y []float64) ([]float64, error) {
	rows := len(x)
	if rows == 0 || len(y) != rows {
		return nil, fmt.Errorf("numeric: need matching observations, got %d x / %d y", rows, len(y))
	}
	cols := len(x[0])
	if cols == 0 {
		return nil, fmt.Errorf("numeric: zero features")
	}
	if rows < cols {
		return nil, fmt.Errorf("numeric: underdetermined fit (%d observations, %d coefficients)", rows, cols)
	}
	xtx := make([][]float64, cols)
	xty := make([]float64, cols)
	for i := range xtx {
		xtx[i] = make([]float64, cols)
	}
	for r := 0; r < rows; r++ {
		if len(x[r]) != cols {
			return nil, fmt.Errorf("numeric: row %d has %d features, want %d", r, len(x[r]), cols)
		}
		for i := 0; i < cols; i++ {
			for j := 0; j < cols; j++ {
				xtx[i][j] += float64(x[r][i] * x[r][j])
			}
			xty[i] += float64(x[r][i] * y[r])
		}
	}
	return Solve(xtx, xty)
}

// RSquared returns the coefficient of determination of predictions against
// observations: 1 − SS_res/SS_tot. A constant observation vector yields
// NaN unless predictions match it exactly (then 1).
func RSquared(observed, predicted []float64) float64 {
	if len(observed) != len(predicted) || len(observed) == 0 {
		return math.NaN()
	}
	mean := Mean(observed)
	ssRes, ssTot := 0.0, 0.0
	for i := range observed {
		d := observed[i] - predicted[i]
		ssRes += float64(d * d)
		t := observed[i] - mean
		ssTot += float64(t * t)
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return math.NaN()
	}
	return 1 - ssRes/ssTot
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range xs {
		sum += v
	}
	return sum / float64(len(xs))
}

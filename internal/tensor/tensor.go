// Package tensor provides the dense float64 linear algebra the real
// parameter-server training framework (internal/nn, internal/ps) is built
// on: vectors, row-major matrices, and a cache-blocked, goroutine-parallel
// GEMM. Stdlib only.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
)

// Dense is a row-major matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// NewDense allocates a zeroed rows x cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows x cols matrix.
func FromSlice(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: %d values for %dx%d", len(data), rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared storage).
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets all elements to 0.
func (m *Dense) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Randomize fills the matrix with He-style initialization: N(0, √(2/fanIn)).
func (m *Dense) Randomize(rng *rand.Rand, fanIn int) {
	std := math.Sqrt(2 / float64(max(fanIn, 1)))
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
}

// parallelThreshold is the FLOP count below which MatMul stays serial;
// goroutine dispatch costs more than it saves on tiny products.
const parallelThreshold = 1 << 16

// blockSize is the GEMM cache block edge (in elements).
const blockSize = 64

// MatMul computes dst = a · b. dst must be preallocated with shape
// a.Rows x b.Cols and may not alias a or b. Large products are split
// across row bands processed by one goroutine per CPU.
func MatMul(dst, a, b *Dense) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul shape mismatch (%dx%d)·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dst.Zero()
	work := a.Rows * a.Cols * b.Cols
	if work < parallelThreshold {
		matMulBand(dst, a, b, 0, a.Rows)
		return
	}
	parallelRows(a.Rows, func(lo, hi int) { matMulBand(dst, a, b, lo, hi) })
}

// matMulBand computes rows [lo, hi) of dst = a·b with ikj loop order and
// cache blocking over k.
func matMulBand(dst, a, b *Dense, lo, hi int) {
	n, k := b.Cols, a.Cols
	for k0 := 0; k0 < k; k0 += blockSize {
		k1 := min(k0+blockSize, k)
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			drow := dst.Row(i)
			for kk := k0; kk < k1; kk++ {
				av := arow[kk]
				if av == 0 {
					continue
				}
				brow := b.Data[kk*n : (kk+1)*n]
				for j, bv := range brow {
					drow[j] += float64(av * bv)
				}
			}
		}
	}
}

// MatMulATB computes dst = aᵀ · b (shapes: a is k x m, b is k x n, dst is
// m x n), the product needed for weight gradients.
func MatMulATB(dst, a, b *Dense) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulATB shape mismatch (%dx%d)ᵀ·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dst.Zero()
	n := b.Cols
	for kk := 0; kk < a.Rows; kk++ {
		arow := a.Row(kk)
		brow := b.Row(kk)
		for i, av := range arow {
			if av == 0 {
				continue
			}
			drow := dst.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				drow[j] += float64(av * bv)
			}
		}
	}
}

// MatMulABT computes dst = a · bᵀ (shapes: a is m x k, b is n x k, dst is
// m x n), the product needed for input gradients.
func MatMulABT(dst, a, b *Dense) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmulABT shape mismatch (%dx%d)·(%dx%d)ᵀ->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	run := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			drow := dst.Row(i)
			for j := 0; j < b.Rows; j++ {
				brow := b.Row(j)
				sum := 0.0
				for kk, av := range arow {
					sum += float64(av * brow[kk])
				}
				drow[j] = sum
			}
		}
	}
	if a.Rows*a.Cols*b.Rows < parallelThreshold {
		run(0, a.Rows)
		return
	}
	parallelRows(a.Rows, run)
}

// parallelRows splits [0, rows) into one contiguous band per CPU and runs
// fn on each band concurrently.
func parallelRows(rows int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > rows {
		workers = rows
	}
	if workers <= 1 {
		fn(0, rows)
		return
	}
	var wg sync.WaitGroup
	band := (rows + workers - 1) / workers
	for lo := 0; lo < rows; lo += band {
		hi := min(lo+band, rows)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// AddRowVector adds vector v to every row of m (bias addition).
func AddRowVector(m *Dense, v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("tensor: bias length %d for %d cols", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, bv := range v {
			row[j] += bv
		}
	}
}

// Axpy computes y += alpha*x elementwise.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: axpy length mismatch %d vs %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += float64(alpha * v)
	}
}

// Scale multiplies x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("tensor: dot length mismatch %d vs %d", len(x), len(y)))
	}
	sum := 0.0
	for i, v := range x {
		sum += float64(v * y[i])
	}
	return sum
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	return math.Sqrt(Dot(x, x))
}

// SoftmaxRows applies a numerically stable softmax to each row in place.
func SoftmaxRows(m *Dense) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		maxV := row[0]
		for _, v := range row[1:] {
			if v > maxV {
				maxV = v
			}
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - maxV)
			row[j] = e
			sum += e
		}
		for j := range row {
			row[j] /= sum
		}
	}
}

// ArgMaxRow returns the index of the largest element of row i.
func (m *Dense) ArgMaxRow(i int) int {
	row := m.Row(i)
	best := 0
	for j, v := range row {
		if v > row[best] {
			best = j
		}
	}
	return best
}

// ReLUForward applies max(0, x) in place and records the mask in mask
// (same shape), for the backward pass.
func ReLUForward(m, mask *Dense) {
	if mask.Rows != m.Rows || mask.Cols != m.Cols {
		panic("tensor: relu mask shape mismatch")
	}
	for i, v := range m.Data {
		if v > 0 {
			mask.Data[i] = 1
		} else {
			mask.Data[i] = 0
			m.Data[i] = 0
		}
	}
}

// MulElem computes dst *= src elementwise.
func MulElem(dst, src *Dense) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic("tensor: mulelem shape mismatch")
	}
	for i, v := range src.Data {
		dst.Data[i] *= v
	}
}

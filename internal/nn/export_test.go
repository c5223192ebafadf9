package nn

import (
	"fmt"
	"math"

	"cynthia/internal/tensor"
)

// Loss computes the mean cross-entropy without gradients.
func (m *MLP) Loss(x *tensor.Dense, labels []int) (float64, error) {
	probs := m.Forward(x).Clone()
	tensor.SoftmaxRows(probs)
	if x.Rows != len(labels) {
		return 0, fmt.Errorf("nn: %d samples vs %d labels", x.Rows, len(labels))
	}
	loss := 0.0
	for i, label := range labels {
		if label < 0 || label >= probs.Cols {
			return 0, fmt.Errorf("nn: label %d out of range", label)
		}
		loss -= math.Log(math.Max(probs.At(i, label), 1e-300))
	}
	return loss / float64(x.Rows), nil
}

// ApplySGD performs w -= lr * g on every parameter.
func (m *MLP) ApplySGD(g *Gradients, lr float64) {
	for l := range m.W {
		tensor.Axpy(-lr, g.W[l].Data, m.W[l].Data)
		tensor.Axpy(-lr, g.B[l], m.B[l])
	}
}

// AddFlatGrad interprets src as a flattened gradient and accumulates it
// into g (g += src), used by the PS to aggregate worker gradients.
func (m *MLP) AddFlatGrad(g *Gradients, src []float64) error {
	if len(src) != m.NumParams() {
		return fmt.Errorf("nn: %d values for %d params", len(src), m.NumParams())
	}
	off := 0
	for l := range g.W {
		tensor.Axpy(1, src[off:off+len(g.W[l].Data)], g.W[l].Data)
		off += len(g.W[l].Data)
		tensor.Axpy(1, src[off:off+len(g.B[l])], g.B[l])
		off += len(g.B[l])
	}
	return nil
}

// ScaleGrads multiplies every gradient by alpha (e.g. 1/n for averaging).
func (g *Gradients) ScaleGrads(alpha float64) {
	for l := range g.W {
		tensor.Scale(alpha, g.W[l].Data)
		tensor.Scale(alpha, g.B[l])
	}
}

// Zero clears the gradients.
func (g *Gradients) Zero() {
	for l := range g.W {
		g.W[l].Zero()
		for j := range g.B[l] {
			g.B[l][j] = 0
		}
	}
}

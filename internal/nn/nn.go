// Package nn implements real trainable neural networks — multilayer
// perceptrons with ReLU activations and a softmax cross-entropy head —
// with exact backpropagation and SGD. Parameters and gradients flatten to
// contiguous vectors so the parameter-server framework (internal/ps) can
// ship them over the wire; this is the genuine training path behind the
// repository's distributed-training examples.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"cynthia/internal/tensor"
)

// MLP is a fully connected network: Sizes[0] inputs, hidden ReLU layers,
// and Sizes[len-1] softmax outputs.
type MLP struct {
	Sizes []int
	W     []*tensor.Dense // W[l] has shape Sizes[l] x Sizes[l+1]
	B     [][]float64     // B[l] has length Sizes[l+1]

	scratch *Gradients // lazily allocated by LossAndGradFlat
}

// Gradients mirrors the MLP parameter structure.
type Gradients struct {
	W []*tensor.Dense
	B [][]float64
}

// NewMLP builds a network with He initialization.
func NewMLP(sizes []int, rng *rand.Rand) (*MLP, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("nn: need >= 2 layer sizes, got %d", len(sizes))
	}
	for _, s := range sizes {
		if s < 1 {
			return nil, fmt.Errorf("nn: layer size %d < 1", s)
		}
	}
	m := &MLP{Sizes: append([]int(nil), sizes...)}
	for l := 0; l < len(sizes)-1; l++ {
		w := tensor.NewDense(sizes[l], sizes[l+1])
		w.Randomize(rng, sizes[l])
		m.W = append(m.W, w)
		m.B = append(m.B, make([]float64, sizes[l+1]))
	}
	return m, nil
}

// NewGradients allocates a zeroed gradient holder matching the network.
func (m *MLP) NewGradients() *Gradients {
	g := &Gradients{}
	for l := range m.W {
		g.W = append(g.W, tensor.NewDense(m.W[l].Rows, m.W[l].Cols))
		g.B = append(g.B, make([]float64, len(m.B[l])))
	}
	return g
}

// NumParams returns the total parameter count.
func (m *MLP) NumParams() int {
	total := 0
	for l := range m.W {
		total += len(m.W[l].Data) + len(m.B[l])
	}
	return total
}

// Forward computes the pre-softmax logits for a batch (rows are samples).
func (m *MLP) Forward(x *tensor.Dense) *tensor.Dense {
	acts, _ := m.forward(x)
	return acts[len(acts)-1]
}

// forward returns all layer activations (post-ReLU) plus the ReLU masks.
// acts[0] is the input; acts[len-1] holds the final logits (no softmax).
func (m *MLP) forward(x *tensor.Dense) (acts []*tensor.Dense, masks []*tensor.Dense) {
	acts = append(acts, x)
	cur := x
	for l := range m.W {
		z := tensor.NewDense(cur.Rows, m.W[l].Cols)
		tensor.MatMul(z, cur, m.W[l])
		tensor.AddRowVector(z, m.B[l])
		if l < len(m.W)-1 {
			mask := tensor.NewDense(z.Rows, z.Cols)
			tensor.ReLUForward(z, mask)
			masks = append(masks, mask)
		}
		acts = append(acts, z)
		cur = z
	}
	return acts, masks
}

// LossAndGrad computes the mean softmax cross-entropy over the batch and
// the exact parameter gradients via backpropagation.
func (m *MLP) LossAndGrad(x *tensor.Dense, labels []int, g *Gradients) (float64, error) {
	if x.Rows != len(labels) {
		return 0, fmt.Errorf("nn: %d samples vs %d labels", x.Rows, len(labels))
	}
	if x.Cols != m.Sizes[0] {
		return 0, fmt.Errorf("nn: input width %d, want %d", x.Cols, m.Sizes[0])
	}
	acts, masks := m.forward(x)
	logits := acts[len(acts)-1]
	probs := logits.Clone()
	tensor.SoftmaxRows(probs)

	batch := float64(x.Rows)
	loss := 0.0
	for i, label := range labels {
		if label < 0 || label >= probs.Cols {
			return 0, fmt.Errorf("nn: label %d out of range [0,%d)", label, probs.Cols)
		}
		loss -= math.Log(math.Max(probs.At(i, label), 1e-300))
	}
	loss /= batch

	// delta at the output: (p - y)/batch.
	delta := probs
	for i, label := range labels {
		delta.Set(i, label, delta.At(i, label)-1)
	}
	tensor.Scale(1/batch, delta.Data)

	for l := len(m.W) - 1; l >= 0; l-- {
		tensor.MatMulATB(g.W[l], acts[l], delta)
		for j := range g.B[l] {
			g.B[l][j] = 0
		}
		for i := 0; i < delta.Rows; i++ {
			row := delta.Row(i)
			for j, v := range row {
				g.B[l][j] += v
			}
		}
		if l > 0 {
			prev := tensor.NewDense(delta.Rows, m.W[l].Rows)
			tensor.MatMulABT(prev, delta, m.W[l])
			tensor.MulElem(prev, masks[l-1])
			delta = prev
		}
	}
	return loss, nil
}

// LossAndGradFlat is LossAndGrad with the gradient flattened into gradOut
// (length NumParams), the layout the parameter servers exchange. It reuses
// a cached gradient holder: an MLP replica is owned by one worker
// goroutine.
func (m *MLP) LossAndGradFlat(x *tensor.Dense, labels []int, gradOut []float64) (float64, error) {
	if m.scratch == nil {
		m.scratch = m.NewGradients()
	}
	loss, err := m.LossAndGrad(x, labels, m.scratch)
	if err != nil {
		return 0, err
	}
	if err := m.FlattenGrads(m.scratch, gradOut); err != nil {
		return 0, err
	}
	return loss, nil
}

// Accuracy returns the fraction of samples whose argmax matches the label.
func (m *MLP) Accuracy(x *tensor.Dense, labels []int) float64 {
	logits := m.Forward(x)
	correct := 0
	for i, label := range labels {
		if logits.ArgMaxRow(i) == label {
			correct++
		}
	}
	return float64(correct) / float64(len(labels))
}

// FlattenParams writes all parameters into dst (length NumParams).
func (m *MLP) FlattenParams(dst []float64) error {
	return m.flattenInto(dst, m.W, m.B)
}

// SetParams loads all parameters from src (length NumParams).
func (m *MLP) SetParams(src []float64) error {
	if len(src) != m.NumParams() {
		return fmt.Errorf("nn: %d values for %d params", len(src), m.NumParams())
	}
	off := 0
	for l := range m.W {
		off += copy(m.W[l].Data, src[off:off+len(m.W[l].Data)])
		off += copy(m.B[l], src[off:off+len(m.B[l])])
	}
	return nil
}

// FlattenGrads writes the gradients into dst (length NumParams).
func (m *MLP) FlattenGrads(g *Gradients, dst []float64) error {
	return m.flattenInto(dst, g.W, g.B)
}

func (m *MLP) flattenInto(dst []float64, w []*tensor.Dense, b [][]float64) error {
	if len(dst) != m.NumParams() {
		return fmt.Errorf("nn: buffer %d for %d params", len(dst), m.NumParams())
	}
	off := 0
	for l := range w {
		off += copy(dst[off:], w[l].Data)
		off += copy(dst[off:], b[l])
	}
	return nil
}

// Package model defines DNN architectures as layer graphs and derives the
// quantities the Cynthia performance model consumes: the per-iteration
// floating-point work witer and the parameter size gparam. It also carries
// the four benchmark workloads of the paper's Table 1 (ResNet-32, VGG-19,
// the mnist DNN, and the cifar10 DNN).
//
// FLOP counting follows the Paleo convention: one training iteration costs
// roughly 3x the forward pass (forward + ~2x for the backward pass), and a
// multiply-accumulate counts as 2 FLOPs.
package model

import (
	"fmt"
	"strings"
)

// Shape is the spatial shape of an activation tensor for one sample:
// height x width x channels. Dense activations use H=1, W=1.
type Shape struct {
	H, W, C int
}

// Elements returns H*W*C.
func (s Shape) Elements() int { return s.H * s.W * s.C }

// String implements fmt.Stringer.
func (s Shape) String() string { return fmt.Sprintf("%dx%dx%d", s.H, s.W, s.C) }

// Layer is one node of a sequential DNN graph.
type Layer interface {
	// Name identifies the layer kind and its key hyperparameters.
	Name() string
	// OutShape returns the output activation shape for the given input.
	OutShape(in Shape) (Shape, error)
	// Params returns the number of trainable parameters given the input
	// shape (weights + biases).
	Params(in Shape) int64
	// FwdFLOPsPerSample returns the forward-pass floating-point
	// operations for a single sample with the given input shape.
	FwdFLOPsPerSample(in Shape) float64
}

// Conv2D is a 2D convolution with square kernels and SAME or VALID padding.
type Conv2D struct {
	Filters int
	Kernel  int
	Stride  int
	Same    bool // SAME padding if true, VALID otherwise
}

// Name implements Layer.
func (c Conv2D) Name() string {
	pad := "valid"
	if c.Same {
		pad = "same"
	}
	return fmt.Sprintf("conv%dx%d/%d,%d,%s", c.Kernel, c.Kernel, c.Stride, c.Filters, pad)
}

// OutShape implements Layer.
func (c Conv2D) OutShape(in Shape) (Shape, error) {
	if c.Kernel <= 0 || c.Stride <= 0 || c.Filters <= 0 {
		return Shape{}, fmt.Errorf("model: bad conv config %+v", c)
	}
	var h, w int
	if c.Same {
		h = ceilDiv(in.H, c.Stride)
		w = ceilDiv(in.W, c.Stride)
	} else {
		if in.H < c.Kernel || in.W < c.Kernel {
			return Shape{}, fmt.Errorf("model: conv kernel %d larger than input %v", c.Kernel, in)
		}
		h = (in.H-c.Kernel)/c.Stride + 1
		w = (in.W-c.Kernel)/c.Stride + 1
	}
	return Shape{H: h, W: w, C: c.Filters}, nil
}

// Params implements Layer.
func (c Conv2D) Params(in Shape) int64 {
	weights := int64(c.Kernel) * int64(c.Kernel) * int64(in.C) * int64(c.Filters)
	return weights + int64(c.Filters) // + biases
}

// FwdFLOPsPerSample implements Layer.
func (c Conv2D) FwdFLOPsPerSample(in Shape) float64 {
	out, err := c.OutShape(in)
	if err != nil {
		return 0
	}
	// 2 FLOPs per MAC, one MAC per kernel element per output element.
	macs := float64(float64(out.H*out.W*out.C) * float64(c.Kernel*c.Kernel*in.C))
	return 2 * macs
}

// Dense is a fully connected layer over the flattened input.
type Dense struct {
	Out int
}

// Name implements Layer.
func (d Dense) Name() string { return fmt.Sprintf("dense%d", d.Out) }

// OutShape implements Layer.
func (d Dense) OutShape(in Shape) (Shape, error) {
	if d.Out <= 0 {
		return Shape{}, fmt.Errorf("model: dense with %d outputs", d.Out)
	}
	return Shape{H: 1, W: 1, C: d.Out}, nil
}

// Params implements Layer.
func (d Dense) Params(in Shape) int64 {
	return int64(in.Elements())*int64(d.Out) + int64(d.Out)
}

// FwdFLOPsPerSample implements Layer.
func (d Dense) FwdFLOPsPerSample(in Shape) float64 {
	return 2 * float64(in.Elements()) * float64(d.Out)
}

// MaxPool is a max pooling layer.
type MaxPool struct {
	Kernel int
	Stride int
}

// Name implements Layer.
func (p MaxPool) Name() string { return fmt.Sprintf("maxpool%dx%d/%d", p.Kernel, p.Kernel, p.Stride) }

// OutShape implements Layer.
func (p MaxPool) OutShape(in Shape) (Shape, error) {
	if p.Kernel <= 0 || p.Stride <= 0 {
		return Shape{}, fmt.Errorf("model: bad pool config %+v", p)
	}
	return Shape{H: ceilDiv(in.H, p.Stride), W: ceilDiv(in.W, p.Stride), C: in.C}, nil
}

// Params implements Layer.
func (p MaxPool) Params(Shape) int64 { return 0 }

// FwdFLOPsPerSample implements Layer.
func (p MaxPool) FwdFLOPsPerSample(in Shape) float64 {
	out, err := p.OutShape(in)
	if err != nil {
		return 0
	}
	return float64(out.Elements()) * float64(p.Kernel*p.Kernel)
}

// GlobalAvgPool averages each channel over its spatial extent.
type GlobalAvgPool struct{}

// Name implements Layer.
func (GlobalAvgPool) Name() string { return "gap" }

// OutShape implements Layer.
func (GlobalAvgPool) OutShape(in Shape) (Shape, error) {
	return Shape{H: 1, W: 1, C: in.C}, nil
}

// Params implements Layer.
func (GlobalAvgPool) Params(Shape) int64 { return 0 }

// FwdFLOPsPerSample implements Layer.
func (GlobalAvgPool) FwdFLOPsPerSample(in Shape) float64 {
	return float64(in.Elements())
}

// ReLU is an elementwise activation.
type ReLU struct{}

// Name implements Layer.
func (ReLU) Name() string { return "relu" }

// OutShape implements Layer.
func (ReLU) OutShape(in Shape) (Shape, error) { return in, nil }

// Params implements Layer.
func (ReLU) Params(Shape) int64 { return 0 }

// FwdFLOPsPerSample implements Layer.
func (ReLU) FwdFLOPsPerSample(in Shape) float64 { return float64(in.Elements()) }

// BatchNorm is batch normalization (scale + shift per channel).
type BatchNorm struct{}

// Name implements Layer.
func (BatchNorm) Name() string { return "bn" }

// OutShape implements Layer.
func (BatchNorm) OutShape(in Shape) (Shape, error) { return in, nil }

// Params implements Layer.
func (BatchNorm) Params(in Shape) int64 { return 2 * int64(in.C) }

// FwdFLOPsPerSample implements Layer.
func (BatchNorm) FwdFLOPsPerSample(in Shape) float64 { return 4 * float64(in.Elements()) }

// Softmax is the output normalization layer.
type Softmax struct{}

// Name implements Layer.
func (Softmax) Name() string { return "softmax" }

// OutShape implements Layer.
func (Softmax) OutShape(in Shape) (Shape, error) { return in, nil }

// Params implements Layer.
func (Softmax) Params(Shape) int64 { return 0 }

// FwdFLOPsPerSample implements Layer.
func (Softmax) FwdFLOPsPerSample(in Shape) float64 { return 3 * float64(in.Elements()) }

// Residual wraps a body of layers with a skip connection. If the body
// changes the shape, a 1x1 projection convolution is counted on the skip
// path (as in ResNet option B).
type Residual struct {
	Body []Layer
}

// Name implements Layer.
func (r Residual) Name() string {
	names := make([]string, len(r.Body))
	for i, l := range r.Body {
		names[i] = l.Name()
	}
	return "res[" + strings.Join(names, " ") + "]"
}

// OutShape implements Layer.
func (r Residual) OutShape(in Shape) (Shape, error) {
	cur := in
	for _, l := range r.Body {
		var err error
		cur, err = l.OutShape(cur)
		if err != nil {
			return Shape{}, err
		}
	}
	return cur, nil
}

// projection reports whether a skip projection is needed and its stride.
func (r Residual) projection(in Shape) (need bool, out Shape) {
	o, err := r.OutShape(in)
	if err != nil {
		return false, in
	}
	return o != in, o
}

// Params implements Layer.
func (r Residual) Params(in Shape) int64 {
	var total int64
	cur := in
	for _, l := range r.Body {
		total += l.Params(cur)
		cur, _ = l.OutShape(cur)
	}
	if need, out := r.projection(in); need {
		proj := Conv2D{Filters: out.C, Kernel: 1, Stride: max(1, in.H/max(out.H, 1)), Same: true}
		total += proj.Params(in)
	}
	return total
}

// FwdFLOPsPerSample implements Layer.
func (r Residual) FwdFLOPsPerSample(in Shape) float64 {
	total := 0.0
	cur := in
	for _, l := range r.Body {
		total += l.FwdFLOPsPerSample(cur)
		cur, _ = l.OutShape(cur)
	}
	if need, out := r.projection(in); need {
		proj := Conv2D{Filters: out.C, Kernel: 1, Stride: max(1, in.H/max(out.H, 1)), Same: true}
		total += proj.FwdFLOPsPerSample(in)
	}
	// Elementwise addition of the skip connection.
	out, _ := r.OutShape(in)
	return total + float64(out.Elements())
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

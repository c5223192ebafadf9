package model

import (
	"fmt"
)

// BytesPerParam is the wire size of one model parameter (float32).
const BytesPerParam = 4

// BackwardFactor is the ratio of (forward+backward) to forward FLOPs per
// training iteration, following the Paleo convention (backward ≈ 2x
// forward).
const BackwardFactor = 3.0

// Network is a sequential DNN architecture.
type Network struct {
	// NetName is a human-readable architecture name, e.g. "ResNet-32".
	NetName string
	// Input is the per-sample input shape.
	Input Shape
	// Layers are applied in order.
	Layers []Layer
}

// LayerStat is the contribution of one layer, used by per-layer analytical
// models such as Paleo.
type LayerStat struct {
	Name    string
	In, Out Shape
	Params  int64
	// FwdFLOPs is the forward FLOPs for a single sample.
	FwdFLOPs float64
}

// Analyze walks the graph with shape inference and returns per-layer
// statistics. It fails if any layer is inconsistent with its input shape.
func (n *Network) Analyze() ([]LayerStat, error) {
	if n.Input.Elements() <= 0 {
		return nil, fmt.Errorf("model: %s has empty input shape %v", n.NetName, n.Input)
	}
	cur := n.Input
	stats := make([]LayerStat, 0, len(n.Layers))
	for i, l := range n.Layers {
		out, err := l.OutShape(cur)
		if err != nil {
			return nil, fmt.Errorf("model: %s layer %d (%s): %w", n.NetName, i, l.Name(), err)
		}
		stats = append(stats, LayerStat{
			Name:     l.Name(),
			In:       cur,
			Out:      out,
			Params:   l.Params(cur),
			FwdFLOPs: l.FwdFLOPsPerSample(cur),
		})
		cur = out
	}
	return stats, nil
}

// ParamCount returns the total number of trainable parameters.
func (n *Network) ParamCount() int64 {
	stats, err := n.Analyze()
	if err != nil {
		return 0
	}
	var total int64
	for _, s := range stats {
		total += s.Params
	}
	return total
}

// ParamMB returns the model parameter size gparam in MB (1 MB = 1e6 bytes),
// the unit the Cynthia model uses for communication volume.
func (n *Network) ParamMB() float64 {
	return float64(n.ParamCount()) * BytesPerParam / 1e6
}

// FwdGFLOPsPerSample returns the forward-pass cost of one sample in GFLOPs.
func (n *Network) FwdGFLOPsPerSample() float64 {
	stats, err := n.Analyze()
	if err != nil {
		return 0
	}
	total := 0.0
	for _, s := range stats {
		total += s.FwdFLOPs
	}
	return total / 1e9
}

// IterGFLOPs returns witer: the total training FLOPs of one iteration over
// a global mini-batch of the given size, in GFLOPs.
func (n *Network) IterGFLOPs(batch int) float64 {
	return BackwardFactor * n.FwdGFLOPsPerSample() * float64(batch)
}

package model

import (
	"fmt"
	"math"
)

// SyncMode is the parameter synchronization mechanism.
type SyncMode int

// Supported synchronization mechanisms (paper Sec. 2).
const (
	// BSP is bulk synchronous parallel: a barrier per iteration, with
	// computation and communication overlapped (TensorFlow's
	// SyncReplicasOptimizer behaviour, paper footnote 2).
	BSP SyncMode = iota
	// ASP is asynchronous parallel: every worker independently computes,
	// then pushes gradients and pulls parameters, in sequence.
	ASP
)

// String implements fmt.Stringer.
func (s SyncMode) String() string {
	switch s {
	case BSP:
		return "BSP"
	case ASP:
		return "ASP"
	default:
		return fmt.Sprintf("SyncMode(%d)", int(s))
	}
}

// LossParams are the coefficients of the paper's Eq. (1) loss model:
// loss = β0/s + β1 for BSP and loss = β0·√n/s + β1 for ASP, where s is the
// iteration count and n the number of workers.
type LossParams struct {
	Beta0 float64
	Beta1 float64
}

// Loss evaluates Eq. (1) for the given sync mode, iteration count, and
// worker count.
func (p LossParams) Loss(sync SyncMode, s float64, n int) float64 {
	if s <= 0 {
		s = 1
	}
	switch sync {
	case ASP:
		return p.Beta0*sqrt(float64(n))/s + p.Beta1
	default:
		return p.Beta0/s + p.Beta1
	}
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// Workload is one DDNN training job: an architecture plus the training
// configuration of the paper's Table 1, with the derived model parameters
// the simulator and the performance models consume.
type Workload struct {
	// Name is the workload identifier ("ResNet-32", "mnist DNN", ...).
	Name string
	// Net is the architecture; nil for synthetic workloads constructed
	// directly from (WiterGFLOPs, GparamMB).
	Net *Network
	// Batch is the global mini-batch size per iteration.
	Batch int
	// Iterations is the full-run iteration budget (Table 1).
	Iterations int
	// Sync is the parameter synchronization mechanism (Table 1).
	Sync SyncMode
	// Dataset names the training data (informational).
	Dataset string

	// WiterGFLOPs is the total training FLOPs of one iteration over the
	// global batch, in GFLOPs (the paper's witer).
	WiterGFLOPs float64
	// GparamMB is the model parameter size in MB (the paper's gparam).
	// One synchronization moves 2x this volume (push + pull).
	GparamMB float64
	// PSCPUPerMB is the parameter server CPU work, in GFLOPs, per MB of
	// parameter traffic it handles (gradient aggregation, SGD apply,
	// serialization, request handling). Architectures with many small
	// tensors (the mnist MLP) pay more per byte than ones dominated by a
	// few huge tensors (VGG-19's dense layers).
	PSCPUPerMB float64
	// Loss holds the fitted Eq. (1) coefficients for this workload.
	Loss LossParams
}

// NewWorkload derives a workload from an architecture, computing witer and
// gparam from the layer graph.
func NewWorkload(net *Network, batch, iterations int, sync SyncMode, dataset string, psCPUPerMB float64, loss LossParams) (*Workload, error) {
	if batch <= 0 || iterations <= 0 {
		return nil, fmt.Errorf("model: workload %s: batch %d and iterations %d must be positive", net.NetName, batch, iterations)
	}
	if _, err := net.Analyze(); err != nil {
		return nil, err
	}
	return &Workload{
		Name:        net.NetName,
		Net:         net,
		Batch:       batch,
		Iterations:  iterations,
		Sync:        sync,
		Dataset:     dataset,
		WiterGFLOPs: net.IterGFLOPs(batch),
		GparamMB:    net.ParamMB(),
		PSCPUPerMB:  psCPUPerMB,
		Loss:        loss,
	}, nil
}

// SyncMB returns the parameter traffic of one synchronization by one
// worker in MB: gradients pushed plus parameters pulled.
func (w *Workload) SyncMB() float64 { return 2 * w.GparamMB }

// IterationsToLoss returns the iteration count s required to reach the
// target loss lg under the workload's fitted loss model, for a cluster of
// n workers (n only matters for ASP). It returns an error if lg is at or
// below the asymptote β1.
func (w *Workload) IterationsToLoss(lg float64, n int) (int, error) {
	if lg <= w.Loss.Beta1 {
		return 0, fmt.Errorf("model: target loss %.3f unreachable (asymptote %.3f)", lg, w.Loss.Beta1)
	}
	var s float64
	switch w.Sync {
	case ASP:
		s = w.Loss.Beta0 * sqrt(float64(n)) / (lg - w.Loss.Beta1)
	default:
		s = w.Loss.Beta0 / (lg - w.Loss.Beta1)
	}
	return int(s + 0.999999), nil
}

// table1 holds the four benchmark workloads of the paper's Table 1, built
// and analysed once: every lookup shares these pointers, so a workload
// read from here must never be written through. Variants go through
// WithSync and WithIterations, which copy.
var table1 = buildTable1()

func buildTable1() []*Workload {
	mk := func(net *Network, batch, iters int, sync SyncMode, dataset string, psCPU float64, loss LossParams) *Workload {
		w, err := NewWorkload(net, batch, iters, sync, dataset, psCPU, loss)
		if err != nil {
			panic(err) // static configuration; cannot fail
		}
		return w
	}
	return []*Workload{
		mk(ResNet32(), 128, 3000, ASP, "cifar10", 0.020, LossParams{Beta0: 300, Beta1: 0.48}),
		mk(MnistDNN(), 512, 10000, BSP, "mnist", 0.037, LossParams{Beta0: 90, Beta1: 0.15}),
		mk(VGG19(), 128, 1000, ASP, "cifar10", 0.012, LossParams{Beta0: 135, Beta1: 0.45}),
		mk(Cifar10DNN(), 512, 10000, BSP, "cifar10", 0.024, LossParams{Beta0: 1200, Beta1: 0.25}),
	}
}

// Workloads returns the four benchmark workloads of the paper's Table 1
// with PS-overhead and loss coefficients calibrated as described in
// DESIGN.md. The slice is fresh, so callers may sort or append to it, but
// the workloads are shared and read-only.
func Workloads() []*Workload {
	return append([]*Workload(nil), table1...)
}

// WorkloadByName returns the Table 1 workload with the given name. The
// workload is shared and read-only; the lookup allocates nothing.
func WorkloadByName(name string) (*Workload, error) {
	for _, w := range table1 {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("model: unknown workload %q", name)
}

// WithSync returns a shallow copy of the workload with the given sync
// mode (the paper evaluates some models under both BSP and ASP).
func (w *Workload) WithSync(sync SyncMode) *Workload {
	cp := *w
	cp.Sync = sync
	return &cp
}

// WithIterations returns a shallow copy with a different iteration budget.
func (w *Workload) WithIterations(iters int) *Workload {
	cp := *w
	cp.Iterations = iters
	return &cp
}

package ps

import (
	"fmt"
	"math"

	"cynthia/internal/tensor"
)

// Optimizer applies a gradient to a parameter vector, holding any state it
// needs (velocity, moments) between steps. Implementations live on the
// parameter server, as in production PS deployments. The paper's
// experiments use SGD; it notes (Sec. 2) that its loss-fitting method also
// covers other optimizers such as Adam, so both are provided.
type Optimizer interface {
	// Apply performs one update of params using grad. It returns an error
	// — leaving params and optimizer state untouched — when grad and
	// params disagree in length, or when stateful optimizers (momentum,
	// Adam) see a vector length different from the one that sized their
	// state on an earlier step.
	Apply(params, grad []float64) error
	// Name identifies the optimizer.
	Name() string
}

// SGD is plain stochastic gradient descent: w -= lr*g.
type SGD struct {
	LR float64
}

// Name implements Optimizer.
func (s *SGD) Name() string { return "sgd" }

// Apply implements Optimizer.
func (s *SGD) Apply(params, grad []float64) error {
	if len(grad) != len(params) {
		return fmt.Errorf("ps: sgd: gradient of %d values for %d params", len(grad), len(params))
	}
	tensor.Axpy(-s.LR, grad, params)
	return nil
}

// Momentum is SGD with classical momentum: v = β·v + g; w -= lr·v.
type Momentum struct {
	LR   float64
	Beta float64
	v    []float64
}

// Name implements Optimizer.
func (m *Momentum) Name() string { return "momentum" }

// Apply implements Optimizer.
func (m *Momentum) Apply(params, grad []float64) error {
	if len(grad) != len(params) {
		return fmt.Errorf("ps: momentum: gradient of %d values for %d params", len(grad), len(params))
	}
	if m.v == nil {
		m.v = make([]float64, len(params))
	}
	if len(m.v) != len(params) {
		return fmt.Errorf("ps: momentum: %d params but velocity state sized for %d", len(params), len(m.v))
	}
	for i, g := range grad {
		m.v[i] = float64(m.Beta*m.v[i]) + g
		params[i] -= float64(m.LR * m.v[i])
	}
	return nil
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction. The
// zero values of Beta1/Beta2/Eps select the standard defaults (0.9,
// 0.999, 1e-8); NewOptimizer resolves them explicitly at construction,
// and Apply never mutates the configuration fields.
type Adam struct {
	LR    float64
	Beta1 float64 // defaults to 0.9 when zero
	Beta2 float64 // defaults to 0.999 when zero
	Eps   float64 // defaults to 1e-8 when zero
	m, v  []float64
	t     int
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "adam" }

// Apply implements Optimizer.
func (a *Adam) Apply(params, grad []float64) error {
	if len(grad) != len(params) {
		return fmt.Errorf("ps: adam: gradient of %d values for %d params", len(grad), len(params))
	}
	if a.m == nil {
		a.m = make([]float64, len(params))
		a.v = make([]float64, len(params))
	}
	if len(a.m) != len(params) {
		return fmt.Errorf("ps: adam: %d params but moment state sized for %d", len(params), len(a.m))
	}
	b1, b2, eps := a.Beta1, a.Beta2, a.Eps
	if b1 == 0 {
		b1 = 0.9
	}
	if b2 == 0 {
		b2 = 0.999
	}
	if eps == 0 {
		eps = 1e-8
	}
	a.t++
	c1 := 1 - math.Pow(b1, float64(a.t))
	c2 := 1 - math.Pow(b2, float64(a.t))
	for i, g := range grad {
		a.m[i] = float64(b1*a.m[i]) + float64((1-b1)*g)
		a.v[i] = float64(b2*a.v[i]) + float64((1-b2)*g*g)
		mHat := a.m[i] / c1
		vHat := a.v[i] / c2
		params[i] -= a.LR * mHat / (math.Sqrt(vHat) + eps)
	}
	return nil
}

// NewOptimizer builds an optimizer by name ("sgd", "momentum", "adam")
// with the given learning rate. Defaults (momentum β, Adam β1/β2/ε) are
// resolved here, once, rather than lazily inside Apply.
func NewOptimizer(name string, lr float64) (Optimizer, error) {
	if lr <= 0 {
		return nil, fmt.Errorf("ps: learning rate %v <= 0", lr)
	}
	switch name {
	case "", "sgd":
		return &SGD{LR: lr}, nil
	case "momentum":
		return &Momentum{LR: lr, Beta: 0.9}, nil
	case "adam":
		return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}, nil
	default:
		return nil, fmt.Errorf("ps: unknown optimizer %q", name)
	}
}

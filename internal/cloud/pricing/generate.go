package pricing

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
)

// GenSpec describes a seeded trace generator. The same spec always
// produces the same trace, so committed trace files can be regenerated
// and byte-compared in tests.
//
// When used through GenerateSet, Base/Min/Max are fractions of each
// instance type's on-demand price (0.55 = 55% of on-demand); through
// Generate they are absolute USD-per-hour prices.
type GenSpec struct {
	// Kind selects the regime: "flat", "mean-revert", "steps", "sawtooth".
	Kind       string  `json:"kind"`
	Seed       int64   `json:"seed"`
	HorizonSec float64 `json:"horizon_sec"`
	// StepSec is the sampling interval between potential change-points.
	StepSec float64 `json:"step_sec"`
	Base    float64 `json:"base"`
	// Volatility scales the per-step noise for mean-revert (relative to
	// Base) and the regime-level spread for steps.
	Volatility float64 `json:"volatility,omitempty"`
	Min        float64 `json:"min"`
	Max        float64 `json:"max"`
}

func (g GenSpec) validate() error {
	switch g.Kind {
	case "flat", "mean-revert", "steps", "sawtooth":
	default:
		return fmt.Errorf("pricing: unknown generator kind %q", g.Kind)
	}
	if g.Base <= 0 || g.Min <= 0 || g.Max < g.Min || g.Base < g.Min || g.Base > g.Max {
		return fmt.Errorf("pricing: generator needs 0 < min <= base <= max (got base=%v min=%v max=%v)", g.Base, g.Min, g.Max)
	}
	if g.Kind != "flat" && (g.HorizonSec <= 0 || g.StepSec <= 0) {
		return fmt.Errorf("pricing: generator %q needs positive horizon and step", g.Kind)
	}
	return nil
}

// quantize rounds to 1e-4 USD/hour so generated prices serialize
// compactly and dedupe cleanly.
func quantize(p float64) float64 { return math.Round(p*1e4) / 1e4 }

func clamp(p, lo, hi float64) float64 { return math.Min(math.Max(p, lo), hi) }

// Generate builds a deterministic trace for one instance type from the
// spec, with Base/Min/Max read as absolute USD-per-hour prices.
func Generate(typeName string, g GenSpec) (Trace, error) {
	if err := g.validate(); err != nil {
		return Trace{}, err
	}
	tr := Trace{Type: typeName}
	push := func(at, price float64) {
		price = quantize(clamp(price, g.Min, g.Max))
		if price <= 0 {
			price = quantize(g.Min)
		}
		n := len(tr.Points)
		if n > 0 && tr.Points[n-1].Price == price {
			return // dedupe runs of the same price
		}
		tr.Points = append(tr.Points, Point{AtSec: at, Price: price})
	}
	switch g.Kind {
	case "flat":
		push(0, g.Base)
	case "mean-revert":
		rng := rand.New(rand.NewSource(g.Seed))
		p := g.Base
		push(0, p)
		for t := g.StepSec; t <= g.HorizonSec; t += g.StepSec {
			// Ornstein-Uhlenbeck-flavoured walk: pull back toward Base,
			// perturb proportionally to Base so volatility reads the same
			// across cheap and expensive instance types.
			p += 0.2*(g.Base-p) + g.Volatility*g.Base*rng.NormFloat64()
			p = clamp(p, g.Min, g.Max)
			push(t, p)
		}
	case "steps":
		rng := rand.New(rand.NewSource(g.Seed))
		t := 0.0
		for t <= g.HorizonSec {
			level := g.Min + rng.Float64()*(g.Max-g.Min)
			push(t, level)
			// Regimes last 2-8 sampling steps.
			t += g.StepSec * float64(2+rng.Intn(7))
		}
	case "sawtooth":
		period := g.HorizonSec / 4
		if period < g.StepSec {
			period = g.StepSec
		}
		for t := 0.0; t <= g.HorizonSec; t += g.StepSec {
			frac := math.Mod(t, period) / period
			push(t, g.Min+frac*(g.Max-g.Min))
		}
	}
	if err := tr.Validate(); err != nil {
		return Trace{}, err
	}
	return tr, nil
}

// GenerateSet builds one trace per instance type from a single spec,
// reading Base/Min/Max as fractions of each type's on-demand price and
// decorrelating the per-type randomness by hashing the type name into
// the seed (so markets don't move in lockstep across types).
func GenerateSet(name string, onDemand map[string]float64, g GenSpec) (*TraceSet, error) {
	if len(onDemand) == 0 {
		return nil, fmt.Errorf("pricing: GenerateSet needs at least one on-demand price")
	}
	names := make([]string, 0, len(onDemand))
	for n := range onDemand {
		names = append(names, n)
	}
	sort.Strings(names)
	ts := &TraceSet{Name: name}
	for _, n := range names {
		od := onDemand[n]
		if od <= 0 {
			return nil, fmt.Errorf("pricing: non-positive on-demand price for %s", n)
		}
		gt := g
		gt.Base, gt.Min, gt.Max = g.Base*od, g.Min*od, g.Max*od
		h := fnv.New64a()
		h.Write([]byte(n))
		gt.Seed = g.Seed ^ int64(h.Sum64())
		tr, err := Generate(n, gt)
		if err != nil {
			return nil, err
		}
		ts.Traces = append(ts.Traces, tr)
	}
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	return ts, nil
}

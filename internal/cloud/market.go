package cloud

// The spot market. A Market holds a pricing.TraceSet: per-type
// piecewise-constant spot-price functions of simulated time, each for a
// type of the catalog it was built against. Every read — SpotPrice,
// FirstCrossAbove, SpotCost, NextChange — is a stateless function of
// (trace, time), so a restarted master re-deriving a decision at the
// same provider-clock instant reads exactly the prices the crashed
// master saw; nothing about market position lives in a snapshot, and a
// Market has no mutating method.

import (
	"errors"
	"fmt"

	"cynthia/internal/cloud/pricing"
)

// ErrSpotUnavailable is returned by LaunchSpot when the current market
// price is above the bid: the provider will not hand out an instance
// it would revoke immediately. It is the one launch refusal callers
// fall back from: the controller rebuilds the cluster on-demand.
var ErrSpotUnavailable = errors.New("cloud: spot price above bid")

// Market prices spot instances for a provider from replayable traces.
type Market struct {
	set *pricing.TraceSet
}

// NewMarket validates the trace set against the catalog: every traced
// type must exist in it.
func NewMarket(catalog *Catalog, set *pricing.TraceSet) (*Market, error) {
	if catalog == nil || set == nil {
		return nil, fmt.Errorf("cloud: market needs a catalog and a trace set")
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	for _, tr := range set.Traces {
		if _, err := catalog.Lookup(tr.Type); err != nil {
			return nil, fmt.Errorf("cloud: market trace for %s: %v", tr.Type, err)
		}
	}
	return &Market{set: set}, nil
}

// SpotPrice returns the spot price of the named type at the given
// provider-clock time, read straight from the trace.
func (m *Market) SpotPrice(name string, at float64) (float64, bool) {
	tr, ok := m.set.Lookup(name)
	if !ok {
		return 0, false
	}
	return tr.PriceAt(at), true
}

// NextChange returns the earliest price change strictly after the given
// time across all traced types.
func (m *Market) NextChange(after float64) (float64, bool) {
	return m.set.NextChange(after)
}

// HasChangeIn reports whether any spot price changes in (t0, t1].
func (m *Market) HasChangeIn(t0, t1 float64) bool {
	at, ok := m.set.NextChange(t0)
	return ok && at <= t1
}

// FirstCrossAbove returns the earliest time at or after the given one
// when the named type's spot price strictly exceeds the bid — the
// instant the market revokes instances bidding that much.
func (m *Market) FirstCrossAbove(name string, bid, after float64) (float64, bool) {
	tr, ok := m.set.Lookup(name)
	if !ok {
		return 0, false
	}
	return tr.FirstCrossAbove(bid, after)
}

// SpotCost integrates the named type's spot price over [t0, t1]: the
// USD cost of one spot instance across that window.
func (m *Market) SpotCost(name string, t0, t1 float64) (float64, bool) {
	tr, ok := m.set.Lookup(name)
	if !ok {
		return 0, false
	}
	return tr.CostBetween(t0, t1), true
}

// Package pricing models the spot market the Cynthia planner provisions
// against: per-instance-type price traces over simulated time, seeded
// trace generators for the market regimes the experiments sweep
// (mean-reverting walks, step regimes, sawtooths), and the bidding
// strategies that decide spot vs on-demand per provisioning slot.
//
// A Trace is a piecewise-constant price function: strictly positive
// prices at strictly increasing change-points, starting at time zero so
// the price is defined over the whole run. Traces serialize to JSON and
// round-trip byte-identically (encoding/json emits the shortest float64
// representation that parses back to the same bits), so replayable trace
// files under testdata/ are exact, not approximate.
package pricing

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// Point is one price change: from AtSec onward (until the next point)
// the spot price is Price USD per instance-hour.
type Point struct {
	AtSec float64 `json:"at_sec"`
	Price float64 `json:"price"`
}

// Trace is the spot-price history of one instance type: a
// piecewise-constant function of provider-clock seconds.
type Trace struct {
	// Type names the catalog instance type this trace prices.
	Type   string  `json:"type"`
	Points []Point `json:"points"`
}

// Validate checks the trace invariants the rest of the stack depends on:
// at least one point, the first at time zero (the price must be defined
// from the start of the run), change-points strictly increasing, and
// every price strictly positive and finite.
func (tr Trace) Validate() error {
	if tr.Type == "" {
		return fmt.Errorf("pricing: trace with empty type")
	}
	if len(tr.Points) == 0 {
		return fmt.Errorf("pricing: trace %s has no points", tr.Type)
	}
	if tr.Points[0].AtSec != 0 {
		return fmt.Errorf("pricing: trace %s starts at %.3fs, must start at 0", tr.Type, tr.Points[0].AtSec)
	}
	prev := math.Inf(-1)
	for i, p := range tr.Points {
		if math.IsNaN(p.Price) || math.IsInf(p.Price, 0) || p.Price <= 0 {
			return fmt.Errorf("pricing: trace %s point %d has non-positive price %v", tr.Type, i, p.Price)
		}
		if math.IsNaN(p.AtSec) || math.IsInf(p.AtSec, 0) || p.AtSec <= prev {
			return fmt.Errorf("pricing: trace %s change-points not strictly increasing at index %d", tr.Type, i)
		}
		prev = p.AtSec
	}
	return nil
}

// PriceAt returns the spot price in effect at time t. Times before the
// first point read the first point's price.
func (tr Trace) PriceAt(t float64) float64 {
	// First point with AtSec > t; the price in effect is the one before.
	i := sort.Search(len(tr.Points), func(i int) bool { return tr.Points[i].AtSec > t })
	if i == 0 {
		return tr.Points[0].Price
	}
	return tr.Points[i-1].Price
}

// NextChange returns the first change-point strictly after the given
// time, or false when the price never moves again.
func (tr Trace) NextChange(after float64) (float64, bool) {
	i := sort.Search(len(tr.Points), func(i int) bool { return tr.Points[i].AtSec > after })
	if i >= len(tr.Points) {
		return 0, false
	}
	return tr.Points[i].AtSec, true
}

// FirstCrossAbove returns the earliest time t >= after at which the
// price strictly exceeds bid — the instant the market would revoke a
// spot instance bidding that much — or false if the price never does.
func (tr Trace) FirstCrossAbove(bid, after float64) (float64, bool) {
	if tr.PriceAt(after) > bid {
		return after, true
	}
	i := sort.Search(len(tr.Points), func(i int) bool { return tr.Points[i].AtSec > after })
	for ; i < len(tr.Points); i++ {
		if tr.Points[i].Price > bid {
			return tr.Points[i].AtSec, true
		}
	}
	return 0, false
}

// CostBetween integrates the price over [t0, t1] and returns the USD
// cost of running one instance across that window (prices are hourly;
// billing is per second, as in the provider).
func (tr Trace) CostBetween(t0, t1 float64) float64 {
	if t1 <= t0 {
		return 0
	}
	total := 0.0
	t := t0
	for t < t1 {
		end := t1
		if next, ok := tr.NextChange(t); ok && next < t1 {
			end = next
		}
		total += float64((end - t) / 3600 * tr.PriceAt(t))
		t = end
	}
	return total
}

// TraceSet is a market: one trace per instance type. Traces are kept
// sorted by type name so the serialized form is canonical.
type TraceSet struct {
	// Name labels the market regime (e.g. "boom-bust"), for reports.
	Name   string  `json:"name,omitempty"`
	Traces []Trace `json:"traces"`
}

// Validate checks every trace and rejects duplicate or unsorted types
// (sorted traces keep the JSON form canonical).
func (ts *TraceSet) Validate() error {
	if len(ts.Traces) == 0 {
		return fmt.Errorf("pricing: trace set %q has no traces", ts.Name)
	}
	prev := ""
	for _, tr := range ts.Traces {
		if err := tr.Validate(); err != nil {
			return err
		}
		if tr.Type <= prev {
			return fmt.Errorf("pricing: trace set %q types not sorted/unique at %q", ts.Name, tr.Type)
		}
		prev = tr.Type
	}
	return nil
}

// Lookup returns the trace for the named instance type.
func (ts *TraceSet) Lookup(typeName string) (Trace, bool) {
	i := sort.Search(len(ts.Traces), func(i int) bool { return ts.Traces[i].Type >= typeName })
	if i < len(ts.Traces) && ts.Traces[i].Type == typeName {
		return ts.Traces[i], true
	}
	return Trace{}, false
}

// NextChange returns the earliest change-point strictly after the given
// time across every trace in the set.
func (ts *TraceSet) NextChange(after float64) (float64, bool) {
	best, ok := 0.0, false
	for _, tr := range ts.Traces {
		if at, has := tr.NextChange(after); has && (!ok || at < best) {
			best, ok = at, true
		}
	}
	return best, ok
}

// LoadTraceSet reads and validates a trace-set JSON file.
func LoadTraceSet(path string) (*TraceSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	ts := new(TraceSet)
	if err := json.Unmarshal(data, ts); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	if err := ts.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return ts, nil
}

package pricing

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func mustGen(t *testing.T, name string, g GenSpec) Trace {
	t.Helper()
	tr, err := Generate(name, g)
	if err != nil {
		t.Fatalf("Generate(%s, %+v): %v", name, g, err)
	}
	return tr
}

// Every generator kind, over many seeds, must emit a valid trace:
// strictly positive prices inside [Min, Max] and strictly increasing
// change-points. This is the core property the fuzzer also checks.
func TestGeneratorsProduceValidTraces(t *testing.T) {
	kinds := []string{"flat", "mean-revert", "steps", "sawtooth"}
	for _, kind := range kinds {
		for seed := int64(0); seed < 40; seed++ {
			g := GenSpec{
				Kind: kind, Seed: seed,
				HorizonSec: 7200, StepSec: 120,
				Base: 0.12, Volatility: 0.08, Min: 0.05, Max: 0.30,
			}
			tr := mustGen(t, "m4.xlarge", g)
			if err := tr.Validate(); err != nil {
				t.Fatalf("%s seed %d: invalid trace: %v", kind, seed, err)
			}
			for i, p := range tr.Points {
				if p.Price < g.Min-1e-9 || p.Price > g.Max+1e-9 {
					t.Fatalf("%s seed %d point %d: price %v outside [%v, %v]", kind, seed, i, p.Price, g.Min, g.Max)
				}
			}
			// Same spec, same trace: the generator must be deterministic.
			again := mustGen(t, "m4.xlarge", g)
			if !reflect.DeepEqual(tr, again) {
				t.Fatalf("%s seed %d: generator not deterministic", kind, seed)
			}
		}
	}
}

func TestGenerateRejectsBadSpecs(t *testing.T) {
	bad := []GenSpec{
		{Kind: "nope", Base: 1, Min: 1, Max: 1},
		{Kind: "flat", Base: 0, Min: 1, Max: 1},
		{Kind: "flat", Base: 2, Min: 1, Max: 1.5},
		{Kind: "mean-revert", Base: 1, Min: 0.5, Max: 2}, // no horizon/step
	}
	for i, g := range bad {
		if _, err := Generate("x", g); err == nil {
			t.Fatalf("spec %d (%+v): expected error", i, g)
		}
	}
}

func TestTraceValidate(t *testing.T) {
	ok := Trace{Type: "m4.xlarge", Points: []Point{{0, 0.1}, {60, 0.2}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := []Trace{
		{Type: "", Points: []Point{{0, 0.1}}},
		{Type: "t", Points: nil},
		{Type: "t", Points: []Point{{5, 0.1}}},           // must start at 0
		{Type: "t", Points: []Point{{0, 0.1}, {0, 0.2}}}, // not increasing
		{Type: "t", Points: []Point{{0, 0.1}, {60, 0}}},  // non-positive price
		{Type: "t", Points: []Point{{0, math.NaN()}}},    // NaN price
		{Type: "t", Points: []Point{{0, 0.1}, {math.Inf(1), 0.2}}},
	}
	for i, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Fatalf("bad trace %d accepted", i)
		}
	}
}

func TestPriceAtAndNextChange(t *testing.T) {
	tr := Trace{Type: "t", Points: []Point{{0, 0.10}, {100, 0.25}, {300, 0.05}}}
	cases := []struct {
		at   float64
		want float64
	}{{-5, 0.10}, {0, 0.10}, {99.9, 0.10}, {100, 0.25}, {250, 0.25}, {300, 0.05}, {1e6, 0.05}}
	for _, c := range cases {
		if got := tr.PriceAt(c.at); got != c.want {
			t.Fatalf("PriceAt(%v) = %v, want %v", c.at, got, c.want)
		}
	}
	if at, ok := tr.NextChange(0); !ok || at != 100 {
		t.Fatalf("NextChange(0) = %v, %v", at, ok)
	}
	if at, ok := tr.NextChange(100); !ok || at != 300 {
		t.Fatalf("NextChange(100) = %v, %v (must be strictly after)", at, ok)
	}
	if _, ok := tr.NextChange(300); ok {
		t.Fatal("NextChange past last point should report none")
	}
}

func TestFirstCrossAbove(t *testing.T) {
	tr := Trace{Type: "t", Points: []Point{{0, 0.10}, {100, 0.25}, {300, 0.05}}}
	if at, ok := tr.FirstCrossAbove(0.20, 0); !ok || at != 100 {
		t.Fatalf("cross above 0.20 from 0: got %v, %v, want 100", at, ok)
	}
	// Already above the bid: crossing is immediate.
	if at, ok := tr.FirstCrossAbove(0.20, 150); !ok || at != 150 {
		t.Fatalf("cross above 0.20 from 150: got %v, %v, want 150", at, ok)
	}
	// Bid above every future price: never revoked.
	if _, ok := tr.FirstCrossAbove(0.30, 0); ok {
		t.Fatal("bid above max price should never cross")
	}
	if _, ok := tr.FirstCrossAbove(0.20, 300); ok {
		t.Fatal("after final drop, 0.20 bid should never cross")
	}
	// Price equal to bid does not revoke (strictly above).
	flat := Trace{Type: "t", Points: []Point{{0, 0.10}}}
	if _, ok := flat.FirstCrossAbove(0.10, 0); ok {
		t.Fatal("price == bid must not count as a crossing")
	}
}

func TestCostBetween(t *testing.T) {
	tr := Trace{Type: "t", Points: []Point{{0, 0.36}, {100, 0.72}}}
	// 100s at 0.36/h + 50s at 0.72/h = 0.01 + 0.01.
	got := tr.CostBetween(0, 150)
	if math.Abs(got-0.02) > 1e-12 {
		t.Fatalf("CostBetween(0,150) = %v, want 0.02", got)
	}
	if tr.CostBetween(50, 50) != 0 || tr.CostBetween(80, 20) != 0 {
		t.Fatal("empty or inverted window must cost 0")
	}
	// Additivity: cost(a,c) == cost(a,b) + cost(b,c).
	a, b, c := 10.0, 120.0, 400.0
	if diff := tr.CostBetween(a, c) - (tr.CostBetween(a, b) + tr.CostBetween(b, c)); math.Abs(diff) > 1e-12 {
		t.Fatalf("cost not additive: diff %v", diff)
	}
}

// JSON round-trip must be byte-identical: unmarshal(canonical bytes)
// then re-marshal yields the same bytes, so committed trace files are
// stable under regeneration.
func TestTraceSetJSONRoundTripByteIdentical(t *testing.T) {
	od := map[string]float64{"m4.xlarge": 0.20, "c3.xlarge": 0.21, "r3.xlarge": 0.333}
	ts, err := GenerateSet("round-trip", od, GenSpec{
		Kind: "mean-revert", Seed: 7, HorizonSec: 3600, StepSec: 120,
		Base: 0.55, Volatility: 0.1, Min: 0.3, Max: 0.95,
	})
	if err != nil {
		t.Fatal(err)
	}
	first, err := ts.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var back TraceSet
	if err := json.Unmarshal(first, &back); err != nil {
		t.Fatal(err)
	}
	second, err := back.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("trace-set JSON round-trip not byte-identical")
	}
}

func TestTraceSetLoadSave(t *testing.T) {
	od := map[string]float64{"m4.xlarge": 0.20, "m1.xlarge": 0.35}
	ts, err := GenerateSet("flat-half", od, GenSpec{Kind: "flat", Base: 0.5, Min: 0.5, Max: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	data, err := ts.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "set.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTraceSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ts, back) {
		t.Fatal("Load(Marshal(ts)) != ts")
	}
	if tr, ok := back.Lookup("m4.xlarge"); !ok || tr.PriceAt(0) != 0.1 {
		t.Fatalf("Lookup(m4.xlarge) = %+v, %v; want flat 0.1", tr, ok)
	}
	if _, ok := back.Lookup("absent"); ok {
		t.Fatal("Lookup of absent type succeeded")
	}
	if _, err := LoadTraceSet(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("loading a missing file should error")
	}
}

func TestTraceSetValidateOrdering(t *testing.T) {
	dup := &TraceSet{Traces: []Trace{
		{Type: "b", Points: []Point{{0, 1}}},
		{Type: "a", Points: []Point{{0, 1}}},
	}}
	if err := dup.Validate(); err == nil {
		t.Fatal("unsorted trace set accepted")
	}
	if err := (&TraceSet{}).Validate(); err == nil {
		t.Fatal("empty trace set accepted")
	}
}

func TestTraceSetNextChange(t *testing.T) {
	ts := &TraceSet{Traces: []Trace{
		{Type: "a", Points: []Point{{0, 1}, {500, 2}}},
		{Type: "b", Points: []Point{{0, 1}, {200, 2}, {900, 1}}},
	}}
	if at, ok := ts.NextChange(0); !ok || at != 200 {
		t.Fatalf("NextChange(0) = %v, %v, want 200", at, ok)
	}
	if at, ok := ts.NextChange(200); !ok || at != 500 {
		t.Fatalf("NextChange(200) = %v, %v, want 500", at, ok)
	}
	if _, ok := ts.NextChange(900); ok {
		t.Fatal("NextChange past all points should report none")
	}
}

func TestStrategyDecide(t *testing.T) {
	const od = 1.0
	cases := []struct {
		s       Strategy
		spot    float64
		useSpot bool
		bid     float64
	}{
		{Aggressive, 0.99, true, 0.99 * aggressiveBidFactor},
		{Aggressive, 1.00, false, 0}, // parity: strict comparison
		{Balanced, 0.50, true, od},
		{Balanced, 0.85, false, 0}, // threshold itself is not enough
		{Balanced, 1.00, false, 0},
		{Conservative, 0.50, true, od * conservativeBid},
		{Conservative, 0.60, false, 0},
	}
	for _, c := range cases {
		useSpot, bid := c.s.Decide(od, c.spot)
		if useSpot != c.useSpot || math.Abs(bid-c.bid) > 1e-12 {
			t.Fatalf("%s.Decide(%v, %v) = %v, %v; want %v, %v", c.s, od, c.spot, useSpot, bid, c.useSpot, c.bid)
		}
	}
	if useSpot, _ := Balanced.Decide(0, 0.5); useSpot {
		t.Fatal("non-positive on-demand price must not pick spot")
	}
}

func TestParseStrategy(t *testing.T) {
	for _, ok := range []string{"aggressive", "balanced", "conservative"} {
		if s, err := ParseStrategy(ok); err != nil || string(s) != ok {
			t.Fatalf("ParseStrategy(%q) = %v, %v", ok, s, err)
		}
	}
	if _, err := ParseStrategy("yolo"); err == nil {
		t.Fatal("ParseStrategy accepted an unknown name")
	}
}

func TestGenerateSetDecorrelatesTypes(t *testing.T) {
	od := map[string]float64{"m4.xlarge": 0.20, "c3.xlarge": 0.20}
	ts, err := GenerateSet("decor", od, GenSpec{
		Kind: "mean-revert", Seed: 3, HorizonSec: 3600, StepSec: 60,
		Base: 0.5, Volatility: 0.15, Min: 0.2, Max: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := ts.Lookup("c3.xlarge")
	b, _ := ts.Lookup("m4.xlarge")
	if reflect.DeepEqual(a.Points, b.Points) {
		t.Fatal("two types with identical on-demand prices produced identical walks; seeds not decorrelated")
	}
}

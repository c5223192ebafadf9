package cloud

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"cynthia/internal/cloud/pricing"
)

// marketWorld builds a provider on a manual clock with a handcrafted
// two-phase m4.xlarge spot trace: cheap until 600s, spiking to 0.40/h,
// then cheap again from 1400s.
func marketWorld(t *testing.T) (*Provider, *Market, *float64) {
	t.Helper()
	now := new(float64)
	cat := DefaultCatalog()
	p := NewProvider(cat, func() float64 { return *now })
	set := &pricing.TraceSet{Name: "test", Traces: []pricing.Trace{
		{Type: M4XLarge, Points: []pricing.Point{{AtSec: 0, Price: 0.06}, {AtSec: 600, Price: 0.40}, {AtSec: 1400, Price: 0.07}}},
	}}
	m, err := NewMarket(cat, set)
	if err != nil {
		t.Fatal(err)
	}
	p.SetMarket(m)
	return p, m, now
}

func TestNewMarketAppliesInitialPrices(t *testing.T) {
	p, m, _ := marketWorld(t)
	if got, ok := m.SpotPrice(M4XLarge, 0); !ok || got != 0.06 {
		t.Fatalf("spot price at time zero = %v, %v; want 0.06", got, ok)
	}
	if got, _ := p.Catalog().Lookup(M4XLarge); got.PricePerHour != 0.20 {
		t.Fatalf("building a market moved the on-demand price to %v", got.PricePerHour)
	}
}

func TestNewMarketRejectsUnknownType(t *testing.T) {
	cat := DefaultCatalog()
	set := &pricing.TraceSet{Traces: []pricing.Trace{
		{Type: "gpu.9000", Points: []pricing.Point{{AtSec: 0, Price: 1}}},
	}}
	if _, err := NewMarket(cat, set); err == nil {
		t.Fatal("market accepted a trace for a type the catalog lacks")
	}
}

// TestMarketSpotPriceFollowsTrace: the spot price at a time is the
// trace's price then, however often and in whatever order it is read.
func TestMarketSpotPriceFollowsTrace(t *testing.T) {
	_, m, _ := marketWorld(t)
	for _, c := range []struct{ at, want float64 }{
		{100, 0.06}, {700, 0.40}, {700, 0.40}, {100, 0.06}, {1400, 0.07},
	} {
		if got, ok := m.SpotPrice(M4XLarge, c.at); !ok || got != c.want {
			t.Fatalf("SpotPrice(%v) = %v, %v; want %v", c.at, got, ok, c.want)
		}
	}
}

func TestMarketReads(t *testing.T) {
	_, m, _ := marketWorld(t)
	if price, ok := m.SpotPrice(M4XLarge, 650); !ok || price != 0.40 {
		t.Fatalf("SpotPrice(650) = %v, %v", price, ok)
	}
	if _, ok := m.SpotPrice("absent", 0); ok {
		t.Fatal("SpotPrice for untraced type succeeded")
	}
	if !m.HasChangeIn(0, 600) || m.HasChangeIn(0, 599) || m.HasChangeIn(1400, 9e9) {
		t.Fatal("HasChangeIn misreads the change-points")
	}
	if at, ok := m.FirstCrossAbove(M4XLarge, 0.20, 0); !ok || at != 600 {
		t.Fatalf("FirstCrossAbove = %v, %v, want 600", at, ok)
	}
	// 600s at 0.06/h + 100s at 0.40/h.
	want := 600.0/3600*0.06 + 100.0/3600*0.40
	if cost, ok := m.SpotCost(M4XLarge, 0, 700); !ok || math.Abs(cost-want) > 1e-12 {
		t.Fatalf("SpotCost(0,700) = %v, want %v", cost, want)
	}
}

func TestLaunchSpotAndCrossingPreemption(t *testing.T) {
	p, _, now := marketWorld(t)
	insts, err := p.LaunchSpot(M4XLarge, 2, 0.20, map[string]string{"job": "j1"})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range insts {
		if !in.Spot || in.BidPerHour != 0.20 {
			t.Fatalf("instance %s not marked spot with bid: %+v", in.ID, in)
		}
	}
	// The 0.40 spike at 600s crosses the 0.20 bid: both instances have a
	// scheduled revocation visible through the NextPreemption oracle.
	if id, at, ok := p.NextPreemption(nil); !ok || at != 600 || id != insts[0].ID {
		t.Fatalf("NextPreemption = %q, %v, %v; want %q at 600", id, at, ok, insts[0].ID)
	}
	*now = 600
	failed := p.ApplyDueFaults()
	if len(failed) != 2 {
		t.Fatalf("%d instances failed at the crossing, want 2", len(failed))
	}
	// Billing: 600s at the 0.06/h spot price, per instance.
	want := 2 * 600.0 / 3600 * 0.06
	if bill := p.Bill(); math.Abs(bill-want) > 1e-12 {
		t.Fatalf("Bill() = %v, want %v (spot-price integral)", bill, want)
	}
}

func TestLaunchSpotUnavailable(t *testing.T) {
	p, _, now := marketWorld(t)
	*now = 700 // inside the 0.40 spike
	_, err := p.LaunchSpot(M4XLarge, 1, 0.20, nil)
	if !errors.Is(err, ErrSpotUnavailable) {
		t.Fatalf("LaunchSpot above bid = %v, want ErrSpotUnavailable", err)
	}
	if p.RunningCount("") != 0 {
		t.Fatal("failed spot launch leaked instances")
	}
	// A bid at the spike price is not "above": launch succeeds and is
	// never revoked (the trace never exceeds 0.40 strictly).
	insts, err := p.LaunchSpot(M4XLarge, 1, 0.40, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := p.NextPreemption(nil); ok {
		t.Fatal("bid equal to the maximum future price must not schedule a revocation")
	}
	_ = insts
}

func TestLaunchSpotRequiresMarketAndTrace(t *testing.T) {
	cat := DefaultCatalog()
	p := NewProvider(cat, func() float64 { return 0 })
	if _, err := p.LaunchSpot(M4XLarge, 1, 0.2, nil); err == nil {
		t.Fatal("spot launch without a market succeeded")
	}
	if _, err := p.LaunchSpot(M4XLarge, 1, 0, nil); err == nil {
		t.Fatal("spot launch with zero bid succeeded")
	}
	p1, m, _ := marketWorld(t)
	p2 := NewProvider(p1.Catalog(), func() float64 { return 0 })
	p2.SetMarket(m)
	if _, err := p2.LaunchSpot(C3XLarge, 1, 0.2, nil); err == nil {
		t.Fatal("spot launch for an untraced type succeeded")
	}
}

func TestSpotKeepsEarlierFaultPreemption(t *testing.T) {
	p, _, now := marketWorld(t)
	// Targeted fault revocation at 300s, before the 600s price crossing:
	// the earlier schedule must win.
	p.SetFaultPlan(FaultPlan{Seed: 1, PreemptAtSec: 300, PreemptNth: 0})
	if _, err := p.LaunchSpot(M4XLarge, 1, 0.20, nil); err != nil {
		t.Fatal(err)
	}
	if _, at, ok := p.NextPreemption(nil); !ok || at != 300 {
		t.Fatalf("NextPreemption = %v, %v; fault at 300 should beat crossing at 600", at, ok)
	}
	_ = now
}

func TestSpotInstancesSurviveStateRoundTrip(t *testing.T) {
	p, m, now := marketWorld(t)
	if _, err := p.LaunchSpot(M4XLarge, 2, 0.20, map[string]string{"job": "j"}); err != nil {
		t.Fatal(err)
	}
	st := p.ExportState(nil)
	p2 := NewProvider(p.Catalog(), func() float64 { return *now })
	p2.SetMarket(m)
	p2.RestoreState(st)
	if !reflect.DeepEqual(st, p2.ExportState(nil)) {
		t.Fatal("provider state with spot instances did not round-trip")
	}
	// The restored world still fires the crossing revocation.
	*now = 600
	if got := len(p2.ApplyDueFaults()); got != 2 {
		t.Fatalf("restored world failed %d instances at the crossing, want 2", got)
	}
}

package cloud

import (
	"slices"
	"strings"
	"sync"
	"testing"
)

// TestCatalogEpochBumpsOnMutation: a repricing is what the next read
// sees, and a spot price leaves the on-demand price alone.
func TestCatalogEpochBumpsOnMutation(t *testing.T) {
	c := DefaultCatalog()
	if err := c.SetPrice(M4XLarge, 0.25); err != nil {
		t.Fatal(err)
	}
	got, err := c.Lookup(M4XLarge)
	if err != nil || got.PricePerHour != 0.25 {
		t.Errorf("Lookup after SetPrice = %+v, %v", got, err)
	}
	if err := c.SetSpotPrice(M4XLarge, 0.1); err != nil {
		t.Fatal(err)
	}
	if p, ok := c.SpotPrice(M4XLarge); !ok || p != 0.1 {
		t.Errorf("SpotPrice after SetSpotPrice = %v, %v; want 0.1", p, ok)
	}
	if got, _ := c.Lookup(M4XLarge); got.PricePerHour != 0.25 {
		t.Errorf("SetSpotPrice moved the on-demand price to %v", got.PricePerHour)
	}
}

// TestCatalogMutationValidation: rejected mutations change no price.
func TestCatalogMutationValidation(t *testing.T) {
	c := DefaultCatalog()
	before := slices.Clone(c.Types())
	if err := c.SetPrice(M4XLarge, 0); err == nil {
		t.Error("non-positive price accepted")
	}
	if err := c.SetPrice("no-such-type", 1); err == nil {
		t.Error("repricing an unknown type accepted")
	}
	if err := c.SetSpotPrice("no-such-type", 1); err == nil {
		t.Error("spot-pricing an unknown type accepted")
	}
	if err := c.SetSpotPrice(M4XLarge, -1); err == nil {
		t.Error("non-positive spot price accepted")
	}
	if !slices.Equal(c.Types(), before) {
		t.Errorf("rejected mutations changed the types to %+v", c.Types())
	}
	if p, ok := c.SpotPrice(M4XLarge); ok {
		t.Errorf("rejected mutations recorded a spot price %v", p)
	}
}

// TestCatalogTypesSnapshot: Types hands out a shared, read-only slice, so
// SetPrice must install a repriced copy instead of writing into it. A
// slice read before the repricing keeps the old price; the next Types
// shows the new one, still in name order.
func TestCatalogTypesSnapshot(t *testing.T) {
	c, other := DefaultCatalog(), DefaultCatalog()
	before := c.Types()
	kept := slices.Clone(before)
	if err := c.SetPrice(M4XLarge, 0.25); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(before, kept) {
		t.Fatalf("SetPrice changed a slice Types returned earlier:\n got %+v\nwant %+v", before, kept)
	}
	// Every DefaultCatalog starts from one shared list; repricing one
	// must not reach another.
	if got := other.Types(); !slices.Equal(got, kept) {
		t.Fatalf("repricing one DefaultCatalog changed another:\n got %+v\nwant %+v", got, kept)
	}
	after := c.Types()
	if !slices.IsSortedFunc(after, func(a, b InstanceType) int { return strings.Compare(a.Name, b.Name) }) {
		t.Fatalf("Types after SetPrice not in name order: %+v", after)
	}
	for i, ty := range after {
		want := kept[i]
		if ty.Name == M4XLarge {
			want.PricePerHour = 0.25
		}
		if ty != want {
			t.Errorf("Types()[%d] after SetPrice = %+v, want %+v", i, ty, want)
		}
	}
	if _, ok := other.SpotPrice(M4XLarge); ok {
		t.Fatal("a fresh catalog reports a spot price")
	}
	if err := c.SetSpotPrice(M4XLarge, 0.07); err != nil {
		t.Fatal(err)
	}
	if _, ok := other.SpotPrice(M4XLarge); ok {
		t.Fatal("a spot price set on one DefaultCatalog reached another")
	}
}

// TestCatalogConcurrentAccess exercises readers racing mutators; run
// under -race this pins the locking discipline, including that no
// repricing writes into a slice a Types reader is walking.
func TestCatalogConcurrentAccess(t *testing.T) {
	c := DefaultCatalog()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				types := c.Types()
				for k := 1; k < len(types); k++ {
					if types[k-1].Name >= types[k].Name || types[k].PricePerHour <= 0 {
						t.Errorf("Types read %+v mid-repricing", types)
						return
					}
				}
				_, _ = c.Lookup(M4XLarge)
				_ = c.Len()
				_, _ = c.SpotPrice(M4XLarge)
			}
		}()
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				_ = c.SetPrice(M4XLarge, 0.20+float64(i*100+j)*1e-6)
			}
		}(i)
	}
	wg.Wait()
	// The last repricing is some writer's last, so it sticks.
	got, err := c.Lookup(M4XLarge)
	if err != nil {
		t.Fatal(err)
	}
	final := false
	for i := 0; i < 4; i++ {
		final = final || got.PricePerHour == 0.20+float64(i*100+99)*1e-6
	}
	if !final {
		t.Errorf("price after 400 repricings = %v, not any writer's last", got.PricePerHour)
	}
}

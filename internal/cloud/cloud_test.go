package cloud

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"cynthia/internal/obs/journal"
)

func TestDefaultCatalogContents(t *testing.T) {
	c := DefaultCatalog()
	if c.Len() != 4 {
		t.Fatalf("catalog has %d types, want 4", c.Len())
	}
	for _, name := range []string{M4XLarge, M1XLarge, C3XLarge, R3XLarge} {
		it, err := c.Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", name, err)
		}
		if it.GFLOPS <= 0 || it.NetMBps <= 0 || it.PricePerHour <= 0 {
			t.Errorf("%s has non-positive attributes: %+v", name, it)
		}
	}
	m4, _ := c.Lookup(M4XLarge)
	m1, _ := c.Lookup(M1XLarge)
	// The paper's straggler slowdown: m1 dockers are ~1.9x slower.
	ratio := m4.GFLOPS / m1.GFLOPS
	if ratio < 1.7 || ratio > 2.1 {
		t.Errorf("m4/m1 speed ratio = %.2f, want ~1.9", ratio)
	}
}

func TestCatalogRejectsBadTypes(t *testing.T) {
	if _, err := NewCatalog(InstanceType{Name: ""}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewCatalog(InstanceType{Name: "x", GFLOPS: -1, NetMBps: 1, PricePerHour: 1}); err == nil {
		t.Error("negative GFLOPS accepted")
	}
	dup := InstanceType{Name: "x", GFLOPS: 1, NetMBps: 1, PricePerHour: 1}
	if _, err := NewCatalog(dup, dup); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestCatalogLookupUnknown(t *testing.T) {
	c := DefaultCatalog()
	if _, err := c.Lookup("p3.16xlarge"); err == nil {
		t.Error("unknown type lookup succeeded")
	}
}

func TestCatalogTypesSorted(t *testing.T) {
	types := DefaultCatalog().Types()
	for i := 1; i < len(types); i++ {
		if types[i-1].Name >= types[i].Name {
			t.Fatalf("types not sorted: %s >= %s", types[i-1].Name, types[i].Name)
		}
	}
}

// TestCatalogTypesSnapshot: Types hands out the catalog's own list, in
// name order, with no spare capacity, so a caller's append copies instead
// of writing into the shared array; and every DefaultCatalog shares one
// list.
func TestCatalogTypesSnapshot(t *testing.T) {
	c, other := DefaultCatalog(), DefaultCatalog()
	types := c.Types()
	if !slices.IsSortedFunc(types, func(a, b InstanceType) int { return strings.Compare(a.Name, b.Name) }) {
		t.Fatalf("Types not in name order: %+v", types)
	}
	if cap(types) != len(types) {
		t.Fatalf("Types has cap %d for len %d; an append would write into the shared array", cap(types), len(types))
	}
	if len(types) == 0 || &other.Types()[0] != &types[0] {
		t.Fatal("two DefaultCatalogs do not share one type list")
	}
}

func TestInstanceTypeString(t *testing.T) {
	it, _ := DefaultCatalog().Lookup(M4XLarge)
	s := it.String()
	if !strings.Contains(s, "m4.xlarge") || !strings.Contains(s, "GFLOPS") {
		t.Errorf("String() = %q, want name and units", s)
	}
}

// fakeClock is a settable simulation clock.
type fakeClock struct{ now float64 }

func (f *fakeClock) Clock() Clock { return func() float64 { return f.now } }

// describe returns the provider's snapshot of one instance, read through
// List.
func describe(t *testing.T, p *Provider, id string) Instance {
	t.Helper()
	for _, inst := range p.List(nil) {
		if inst.ID == id {
			return inst
		}
	}
	t.Fatalf("no instance %q", id)
	return Instance{}
}

func TestLaunchDescribeTerminate(t *testing.T) {
	clk := &fakeClock{}
	p := NewProvider(DefaultCatalog(), clk.Clock())
	insts, err := p.Launch(M4XLarge, 3, map[string]string{"role": "worker"})
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 3 {
		t.Fatalf("launched %d, want 3", len(insts))
	}
	if p.RunningCount(M4XLarge) != 3 || p.RunningCount("") != 3 {
		t.Errorf("running counts: %d/%d, want 3/3", p.RunningCount(M4XLarge), p.RunningCount(""))
	}
	got := describe(t, p, insts[0].ID)
	if got.State != StateRunning || got.Tags["role"] != "worker" {
		t.Errorf("describe = %+v", got)
	}
	clk.now = 100
	if err := p.Terminate(insts[0].ID); err != nil {
		t.Fatal(err)
	}
	got = describe(t, p, insts[0].ID)
	if got.State != StateTerminated || got.TerminatedAt != 100 {
		t.Errorf("after terminate: %+v", got)
	}
	if p.RunningCount(M4XLarge) != 2 {
		t.Errorf("running = %d, want 2", p.RunningCount(M4XLarge))
	}
	// Idempotent terminate.
	if err := p.Terminate(insts[0].ID); err != nil {
		t.Errorf("double terminate: %v", err)
	}
}

func TestLaunchErrors(t *testing.T) {
	p := NewProvider(DefaultCatalog(), (&fakeClock{}).Clock())
	if _, err := p.Launch("nope", 1, nil); err == nil {
		t.Error("unknown type launch succeeded")
	}
	if _, err := p.Launch(M4XLarge, 0, nil); err == nil {
		t.Error("zero-count launch succeeded")
	}
	if err := p.Terminate("i-missing"); err == nil {
		t.Error("terminate of missing instance succeeded")
	}
}

func TestListFiltersByTags(t *testing.T) {
	p := NewProvider(DefaultCatalog(), (&fakeClock{}).Clock())
	if _, err := p.Launch(M4XLarge, 2, map[string]string{"role": "worker"}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Launch(R3XLarge, 1, map[string]string{"role": "ps"}); err != nil {
		t.Fatal(err)
	}
	workers := p.List(map[string]string{"role": "worker"})
	if len(workers) != 2 {
		t.Errorf("workers = %d, want 2", len(workers))
	}
	all := p.List(nil)
	if len(all) != 3 {
		t.Errorf("all = %d, want 3", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Errorf("list not sorted by ID")
		}
	}
	none := p.List(map[string]string{"role": "gpu"})
	if len(none) != 0 {
		t.Errorf("unexpected matches: %d", len(none))
	}
}

func TestBillingPerSecond(t *testing.T) {
	clk := &fakeClock{}
	p := NewProvider(DefaultCatalog(), clk.Clock())
	jrnl := journal.New(16, journal.Deterministic())
	p.SetJournal(jrnl)
	insts, err := p.Launch(M4XLarge, 2, nil) // $0.20/h each
	if err != nil {
		t.Fatal(err)
	}
	clk.now = 1800 // 30 min
	if err := p.Terminate(insts[0].ID); err != nil {
		t.Fatal(err)
	}
	clk.now = 3600 // 60 min
	// Instance 0: 0.5h * 0.20 = 0.10; instance 1 still running: 1h * 0.20.
	want := 0.10 + 0.20
	if got := p.Bill(); math.Abs(got-want) > 1e-9 {
		t.Errorf("bill = %v, want %v", got, want)
	}
	// Each teardown journals the instance's whole bill: once both are
	// terminated, their cost_usd fields add up to the provider's bill.
	if err := p.Terminate(insts[1].ID); err != nil {
		t.Fatal(err)
	}
	var costs []float64
	for _, e := range jrnl.Since(0) {
		if e.Type != journal.InstanceTerminated {
			continue
		}
		for _, f := range e.Fields {
			if f.Key == "cost_usd" {
				c, err := strconv.ParseFloat(f.Value, 64)
				if err != nil {
					t.Fatal(err)
				}
				costs = append(costs, c)
			}
		}
	}
	if len(costs) != 2 || math.Abs(costs[0]-0.10) > 1e-9 || costs[0]+costs[1] != p.Bill() {
		t.Errorf("cloud.instance.terminated cost_usd = %v, want 0.10 and a sum equal to the bill %v", costs, p.Bill())
	}
}

func TestListReturnsSnapshot(t *testing.T) {
	p := NewProvider(DefaultCatalog(), (&fakeClock{}).Clock())
	insts, _ := p.Launch(M4XLarge, 1, map[string]string{"k": "v"})
	describe(t, p, insts[0].ID).Tags["k"] = "mutated"
	if describe(t, p, insts[0].ID).Tags["k"] != "v" {
		t.Error("List leaked internal tag map")
	}
}

func TestCostHelper(t *testing.T) {
	it, _ := DefaultCatalog().Lookup(M4XLarge)
	if got := Cost(it, 10, 3600); math.Abs(got-2.0) > 1e-9 {
		t.Errorf("Cost = %v, want 2.0", got)
	}
	if got := Cost(it, -1, 3600); got != 0 {
		t.Errorf("negative count cost = %v, want 0", got)
	}
	if got := Cost(it, 1, -5); got != 0 {
		t.Errorf("negative duration cost = %v, want 0", got)
	}
}

func TestInstanceStateString(t *testing.T) {
	cases := map[InstanceState]string{
		StatePending:      "pending",
		StateRunning:      "running",
		StateTerminated:   "terminated",
		InstanceState(42): "InstanceState(42)",
	}
	for state, want := range cases {
		if got := state.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(state), got, want)
		}
	}
}

// Property: billing is monotone in time and linear in instance count.
func TestPropertyBillingLinear(t *testing.T) {
	f := func(nRaw uint8, secsRaw uint16) bool {
		n := int(nRaw%8) + 1
		secs := float64(secsRaw)
		clk := &fakeClock{}
		p := NewProvider(DefaultCatalog(), clk.Clock())
		if _, err := p.Launch(M4XLarge, n, nil); err != nil {
			return false
		}
		clk.now = secs
		it, _ := p.Catalog().Lookup(M4XLarge)
		want := Cost(it, n, secs)
		return math.Abs(p.Bill()-want) < 1e-9*(1+want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConcurrentLaunchTerminate(t *testing.T) {
	p := NewProvider(DefaultCatalog(), (&fakeClock{}).Clock())
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			insts, err := p.Launch(M4XLarge, 4, nil)
			if err != nil {
				done <- err
				return
			}
			for _, in := range insts {
				if err := p.Terminate(in.ID); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if p.RunningCount("") != 0 {
		t.Errorf("running = %d, want 0", p.RunningCount(""))
	}
}

func TestGPUCatalog(t *testing.T) {
	g := GPUCatalog()
	if g.Len() != 3 {
		t.Fatalf("GPU catalog has %d types", g.Len())
	}
	v100, err := g.Lookup(P3_2XLarge)
	if err != nil {
		t.Fatal(err)
	}
	k80, err := g.Lookup(P2XLarge)
	if err != nil {
		t.Fatal(err)
	}
	if v100.GFLOPS <= k80.GFLOPS || v100.PricePerHour <= k80.PricePerHour {
		t.Errorf("V100 should be faster and pricier than K80: %v vs %v", v100, k80)
	}
	// GPU tiers dwarf the CPU tier.
	m4, _ := DefaultCatalog().Lookup(M4XLarge)
	if k80.GFLOPS < 100*m4.GFLOPS {
		t.Errorf("K80 (%v) should be >=100x m4 (%v)", k80.GFLOPS, m4.GFLOPS)
	}
}

func TestExtendedCatalog(t *testing.T) {
	e := ExtendedCatalog()
	if e.Len() != 7 {
		t.Fatalf("extended catalog has %d types, want 7", e.Len())
	}
	for _, name := range []string{M4XLarge, P2XLarge, P3_2XLarge, G3_4XLarge} {
		if _, err := e.Lookup(name); err != nil {
			t.Errorf("Lookup(%s): %v", name, err)
		}
	}
}

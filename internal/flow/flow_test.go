package flow

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSingleFlowSingleResource(t *testing.T) {
	e := NewEngine()
	r := NewResource("cpu", 2.0)
	var doneAt float64
	e.Submit("job", 10, []*Resource{r}, func(now float64) { doneAt = now })
	end := e.Run(0)
	if !almostEqual(doneAt, 5.0, 1e-9) {
		t.Errorf("flow finished at %v, want 5.0", doneAt)
	}
	if !almostEqual(end, 5.0, 1e-9) {
		t.Errorf("engine ended at %v, want 5.0", end)
	}
	if u := r.Utilization(end); !almostEqual(u, 1.0, 1e-9) {
		t.Errorf("utilization = %v, want 1.0", u)
	}
}

func TestTwoFlowsShareEqually(t *testing.T) {
	e := NewEngine()
	r := NewResource("nic", 10.0)
	var t1, t2 float64
	e.Submit("a", 10, []*Resource{r}, func(now float64) { t1 = now })
	e.Submit("b", 10, []*Resource{r}, func(now float64) { t2 = now })
	e.Run(0)
	// Both get 5 units/s, both finish at t=2.
	if !almostEqual(t1, 2.0, 1e-9) || !almostEqual(t2, 2.0, 1e-9) {
		t.Errorf("finish times %v, %v; want 2.0, 2.0", t1, t2)
	}
}

func TestShorterFlowFreesCapacity(t *testing.T) {
	e := NewEngine()
	r := NewResource("nic", 10.0)
	var tShort, tLong float64
	e.Submit("short", 5, []*Resource{r}, func(now float64) { tShort = now })
	e.Submit("long", 15, []*Resource{r}, func(now float64) { tLong = now })
	e.Run(0)
	// Share 5 each until t=1 (short done, long has 10 left), then long at
	// 10/s finishes at t=2.
	if !almostEqual(tShort, 1.0, 1e-9) {
		t.Errorf("short finished at %v, want 1.0", tShort)
	}
	if !almostEqual(tLong, 2.0, 1e-9) {
		t.Errorf("long finished at %v, want 2.0", tLong)
	}
}

func TestMultiResourcePathLimitedByBottleneck(t *testing.T) {
	e := NewEngine()
	fast := NewResource("fast", 100)
	slow := NewResource("slow", 1)
	var done float64
	e.Submit("f", 10, []*Resource{fast, slow}, func(now float64) { done = now })
	e.Run(0)
	if !almostEqual(done, 10.0, 1e-9) {
		t.Errorf("finish = %v, want 10 (limited by slow resource)", done)
	}
	if u := fast.Utilization(10); !almostEqual(u, 0.01, 1e-9) {
		t.Errorf("fast utilization = %v, want 0.01", u)
	}
}

func TestMaxMinUnevenPaths(t *testing.T) {
	// Classic max-min example: flows A (through r1 only), B (r1 and r2),
	// C (r2 only). r1 cap 10, r2 cap 4. B is limited by r2: share 2.
	// Then A gets the rest of r1: 8. C gets 2.
	e := NewEngine()
	r1 := NewResource("r1", 10)
	r2 := NewResource("r2", 4)
	a := e.Submit("A", 1e9, []*Resource{r1}, nil)
	b := e.Submit("B", 1e9, []*Resource{r1, r2}, nil)
	c := e.Submit("C", 1e9, []*Resource{r2}, nil)
	e.allocate()
	if !almostEqual(a.Rate(), 8, 1e-9) {
		t.Errorf("rate A = %v, want 8", a.Rate())
	}
	if !almostEqual(b.Rate(), 2, 1e-9) {
		t.Errorf("rate B = %v, want 2", b.Rate())
	}
	if !almostEqual(c.Rate(), 2, 1e-9) {
		t.Errorf("rate C = %v, want 2", c.Rate())
	}
}

func TestTimersFireInOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(2, func(float64) { order = append(order, 2) })
	e.At(1, func(float64) { order = append(order, 1) })
	e.At(1, func(float64) { order = append(order, 10) }) // same time: FIFO
	e.At(3, func(float64) { order = append(order, 3) })
	e.Run(0)
	want := []int{1, 10, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var at float64
	e.After(1.5, func(now float64) {
		e.After(2.5, func(now float64) { at = now })
	})
	e.Run(0)
	if !almostEqual(at, 4.0, 1e-9) {
		t.Errorf("nested After fired at %v, want 4.0", at)
	}
}

func TestZeroSizeFlowCompletesImmediately(t *testing.T) {
	e := NewEngine()
	r := NewResource("r", 1)
	fired := false
	e.Submit("zero", 0, []*Resource{r}, func(now float64) {
		fired = true
		if now != 0 {
			t.Errorf("zero flow completed at %v, want 0", now)
		}
	})
	if !fired {
		t.Error("zero-size flow did not complete synchronously")
	}
	e.Run(0)
}

func TestChainedSubmissionFromCallback(t *testing.T) {
	e := NewEngine()
	r := NewResource("cpu", 1)
	var finish float64
	e.Submit("first", 2, []*Resource{r}, func(now float64) {
		e.Submit("second", 3, []*Resource{r}, func(now float64) { finish = now })
	})
	e.Run(0)
	if !almostEqual(finish, 5.0, 1e-9) {
		t.Errorf("chained finish = %v, want 5.0", finish)
	}
}

func TestHorizonStopsEarly(t *testing.T) {
	e := NewEngine()
	r := NewResource("cpu", 1)
	done := false
	e.Submit("long", 100, []*Resource{r}, func(float64) { done = true })
	end := e.Run(10)
	if done {
		t.Error("flow should not have completed before horizon")
	}
	if !almostEqual(end, 10, 1e-9) {
		t.Errorf("end = %v, want 10", end)
	}
	if bi := r.BusyIntegral(); !almostEqual(bi, 10, 1e-9) {
		t.Errorf("busy integral = %v, want 10", bi)
	}
}

func TestStopHaltsRun(t *testing.T) {
	e := NewEngine()
	r := NewResource("cpu", 1)
	e.Submit("long", 100, []*Resource{r}, nil)
	e.At(5, func(float64) { e.Stop() })
	end := e.Run(0)
	if !almostEqual(end, 5, 1e-9) {
		t.Errorf("end = %v, want 5", end)
	}
}

func TestUtilizationPartialLoad(t *testing.T) {
	e := NewEngine()
	r := NewResource("cpu", 4)
	e.Submit("j", 4, []*Resource{r}, nil) // runs at 4/s for 1s
	e.At(3, func(float64) {})             // hold clock to t=3
	end := e.Run(0)
	if !almostEqual(end, 3, 1e-9) {
		t.Fatalf("end = %v, want 3", end)
	}
	// Busy 1s of 3s.
	if u := r.Utilization(end); !almostEqual(u, 1.0/3, 1e-9) {
		t.Errorf("utilization = %v, want 1/3", u)
	}
}

func TestSeriesAccumulate(t *testing.T) {
	s := NewSeries(1.0)
	s.Accumulate(0.5, 2.5, 10) // 10 units/s over [0.5, 2.5)
	if s.Len() != 3 {
		t.Fatalf("len = %d, want 3", s.Len())
	}
	if !almostEqual(s.Rate(0), 5, 1e-9) {
		t.Errorf("bin0 rate = %v, want 5", s.Rate(0))
	}
	if !almostEqual(s.Rate(1), 10, 1e-9) {
		t.Errorf("bin1 rate = %v, want 10", s.Rate(1))
	}
	if !almostEqual(s.Rate(2), 5, 1e-9) {
		t.Errorf("bin2 rate = %v, want 5", s.Rate(2))
	}
	if !almostEqual(s.Peak(), 10, 1e-9) {
		t.Errorf("peak = %v, want 10", s.Peak())
	}
	if !almostEqual(s.MeanRate(0, 3), 20.0/3, 1e-9) {
		t.Errorf("mean = %v, want 20/3", s.MeanRate(0, 3))
	}
}

func TestSeriesAttachedToResource(t *testing.T) {
	e := NewEngine()
	r := NewResource("nic", 8)
	series := r.Record(0.5)
	e.Submit("xfer", 8, []*Resource{r}, nil) // 1 second at 8/s
	e.Run(0)
	if got := series.SteadyRate(0, 0); !almostEqual(got, 8, 1e-9) {
		t.Errorf("steady rate = %v, want 8", got)
	}
}

func TestDeadlockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on NaN-capacity resource")
		}
	}()
	NewResource("bad", math.NaN())
}

func TestEmptyPathPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on empty path")
		}
	}()
	NewEngine().Submit("bad", 1, nil, nil)
}

// Property: total allocated rate on a resource never exceeds capacity, and
// with a single shared resource every flow gets capacity/n.
func TestPropertyFairShareSingleResource(t *testing.T) {
	f := func(nFlows uint8, capQ uint16) bool {
		n := int(nFlows%16) + 1
		capacity := float64(capQ%1000+1) / 10
		e := NewEngine()
		r := NewResource("r", capacity)
		flows := make([]*Flow, n)
		for i := 0; i < n; i++ {
			flows[i] = e.Submit("f", 1e6, []*Resource{r}, nil)
		}
		e.allocate()
		total := 0.0
		for _, fl := range flows {
			if !almostEqual(fl.Rate(), capacity/float64(n), 1e-9*capacity) {
				return false
			}
			total += fl.Rate()
		}
		return total <= capacity*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: max-min allocation never exceeds any resource capacity and is
// Pareto efficient (at least one resource on each flow's path saturated).
func TestPropertyMaxMinFeasibleAndEfficient(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		nRes := rng.Intn(5) + 1
		nFlows := rng.Intn(12) + 1
		e := NewEngine()
		resources := make([]*Resource, nRes)
		for i := range resources {
			resources[i] = NewResource("r", rng.Float64()*99+1)
		}
		flows := make([]*Flow, nFlows)
		for i := range flows {
			// Random non-empty subset path.
			var path []*Resource
			for _, r := range resources {
				if rng.Intn(2) == 0 {
					path = append(path, r)
				}
			}
			if len(path) == 0 {
				path = append(path, resources[rng.Intn(nRes)])
			}
			flows[i] = e.Submit("f", 1e9, path, nil)
		}
		e.allocate()
		// Feasibility.
		load := map[*Resource]float64{}
		for _, f := range flows {
			for _, r := range f.path {
				load[r] += f.rate
			}
		}
		for r, l := range load {
			if l > r.capacity*(1+1e-9) {
				t.Fatalf("trial %d: resource overloaded: %v > %v", trial, l, r.capacity)
			}
		}
		// Pareto efficiency: every flow crosses a saturated resource.
		for _, f := range flows {
			saturated := false
			for _, r := range f.path {
				if load[r] >= r.capacity*(1-1e-6) {
					saturated = true
					break
				}
			}
			if !saturated {
				t.Fatalf("trial %d: flow rate %v not limited by any saturated resource", trial, f.rate)
			}
		}
	}
}

// Property: work conservation — total service delivered equals total flow
// size when all flows complete.
func TestPropertyWorkConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		e := NewEngine()
		r := NewResource("r", rng.Float64()*9+1)
		total := 0.0
		n := rng.Intn(10) + 1
		for i := 0; i < n; i++ {
			size := rng.Float64()*50 + 1
			total += size
			e.Submit("f", size, []*Resource{r}, nil)
		}
		end := e.Run(0)
		if !almostEqual(r.BusyIntegral(), total, 1e-6*total) {
			t.Fatalf("trial %d: served %v, want %v", trial, r.BusyIntegral(), total)
		}
		// A single resource processing alone is work conserving: end time
		// is exactly total/capacity.
		if !almostEqual(end, total/r.Capacity(), 1e-6*end) {
			t.Fatalf("trial %d: end %v, want %v", trial, end, total/r.Capacity())
		}
	}
}

// benchAllocators are the allocator variants every hot-path benchmark
// reports: "incremental" is the production allocator, "reference" the
// pre-incremental full recompute kept as the test oracle, for comparing
// the two by hand.
var benchAllocators = []struct {
	name string
	step func(*Engine)
}{
	{"incremental", nil},
	{"reference", (*Engine).allocReferenceStep},
}

// ringTopology loads e with 64 long-lived flows over an 8-resource ring,
// so every flow is in one bottleneck group and a recompute re-waterfills
// all 64. It returns the resources to dirty in turn.
func ringTopology(e *Engine) []*Resource {
	resources := make([]*Resource, 8)
	for i := range resources {
		resources[i] = NewResource("r", 100)
	}
	for i := 0; i < 64; i++ {
		e.Submit("f", 1e18, []*Resource{resources[i%8], resources[(i+1)%8]}, nil)
	}
	return resources
}

// sparseTopology loads e with 128 long-lived flows in 16 disjoint
// 2-resource components. It returns one resource per component, so each
// recompute dirties one component: the reference allocator pays for all
// 128 flows, the incremental allocator re-waterfills 8.
func sparseTopology(e *Engine) []*Resource {
	const groups = 16
	resources := make([]*Resource, 2*groups)
	for i := range resources {
		resources[i] = NewResource("r", 100)
	}
	for i := 0; i < 128; i++ {
		g := i % groups
		e.Submit("f", 1e18, []*Resource{resources[2*g], resources[2*g+1]}, nil)
	}
	dirty := make([]*Resource, groups)
	for g := range dirty {
		dirty[g] = resources[2*g]
	}
	return dirty
}

// benchAllocate measures one allocation recompute over a topology. Each
// iteration dirties a resource so the incremental allocator actually
// re-waterfills instead of skipping.
func benchAllocate(b *testing.B, topology func(*Engine) []*Resource) {
	for _, alloc := range benchAllocators {
		b.Run(alloc.name, func(b *testing.B) {
			e := NewEngine()
			e.allocStep = alloc.step
			dirty := topology(e)
			e.allocate() // warm scratch buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.dirty = append(e.dirty, dirty[i%len(dirty)])
				e.allocate()
			}
		})
	}
}

// BenchmarkAllocate64Flows measures a recompute of one 64-flow component.
func BenchmarkAllocate64Flows(b *testing.B) { benchAllocate(b, ringTopology) }

// BenchmarkAllocateSparse measures the component-local win: one dirty
// component out of 16.
func BenchmarkAllocateSparse(b *testing.B) { benchAllocate(b, sparseTopology) }

// runEngineThroughput churns 1000 sequential flows through one resource
// (every event changes the flow set, so nothing is skippable).
func runEngineThroughput(step func(*Engine)) {
	e := NewEngine()
	e.allocStep = step
	r := NewResource("r", 100)
	var spawn func(now float64)
	count := 0
	spawn = func(now float64) {
		count++
		if count < 1000 {
			e.Submit("f", 1, []*Resource{r}, spawn)
		}
	}
	e.Submit("f", 1, []*Resource{r}, spawn)
	e.Run(0)
}

// runEngineLargeScenario sustains a 64-concurrent-flow load over 16
// resources (8 worker NICs x 8 PS NICs, the ddnnsim transfer topology),
// with every completion respawning a flow on a rotated path: 2000 churn
// events per engine run.
func runEngineLargeScenario(step func(*Engine)) {
	e := NewEngine()
	e.allocStep = step
	wk := make([]*Resource, 8)
	ps := make([]*Resource, 8)
	for j := range wk {
		wk[j] = NewResource("wk", 100)
		ps[j] = NewResource("ps", 120)
	}
	remaining := 2000
	var spawn func(j, k int) func(now float64)
	spawn = func(j, k int) func(now float64) {
		return func(now float64) {
			remaining--
			if remaining > 0 {
				nj, nk := (j+1)%8, (k+3)%8
				e.Submit("t", 1+float64((j+k)%7), []*Resource{wk[nj], ps[nk]}, spawn(nj, nk))
			}
		}
	}
	for f := 0; f < 64; f++ {
		j, k := f%8, (f/8)%8
		e.Submit("t", 1+float64((j+k)%7), []*Resource{wk[j], ps[k]}, spawn(j, k))
	}
	e.Run(0)
}

// TestEngineAllocCeilings bounds the allocations of whole engine runs
// under the production allocator. Each ceiling is the allocs/op measured
// when it was set, plus 0.1% + 0.5 slack for slice-growth jitter, so a
// rise fails and a fall passes; lower a ceiling when a change lowers the
// count.
func TestEngineAllocCeilings(t *testing.T) {
	for _, tc := range []struct {
		name     string
		run      func(step func(*Engine))
		measured float64
	}{
		{"EngineThroughput", runEngineThroughput, 1019},
		{"EngineLargeScenario", runEngineLargeScenario, 4361},
	} {
		allocs := testing.AllocsPerRun(5, func() { tc.run(nil) })
		ceiling := tc.measured*1.001 + 0.5
		t.Logf("%s: %.0f allocs per run, ceiling %.1f", tc.name, allocs, ceiling)
		if allocs > ceiling {
			t.Errorf("%s allocates %.0f per run, above its ceiling %.1f", tc.name, allocs, ceiling)
		}
	}
}

// BenchmarkEngineThroughput times runEngineThroughput, the event loop
// under full churn.
func BenchmarkEngineThroughput(b *testing.B) {
	for _, alloc := range benchAllocators {
		b.Run(alloc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runEngineThroughput(alloc.step)
			}
		})
	}
}

// BenchmarkEngineTimerSteps measures the indexed event core: with a large
// active flow set whose completion keys never move, a timer-only step is
// a heap peek plus a timer pop/push and touches none of the O(active)
// flow set.
func BenchmarkEngineTimerSteps(b *testing.B) {
	e := NewEngine()
	ringTopology(e)
	var tick func(now float64)
	tick = func(now float64) { e.After(1, tick) }
	e.After(1, tick)
	horizon := 10.0
	e.Run(horizon) // warm buffers, run the initial waterfill
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		horizon++
		e.Run(horizon)
	}
}

// BenchmarkEngineLargeScenario times runEngineLargeScenario, the
// simulator-shaped load.
func BenchmarkEngineLargeScenario(b *testing.B) {
	for _, alloc := range benchAllocators {
		b.Run(alloc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runEngineLargeScenario(alloc.step)
			}
		})
	}
}

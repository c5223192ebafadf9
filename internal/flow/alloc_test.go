package flow

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// buildChurn constructs a randomized multi-component engine run: staggered
// arrivals over disjoint and overlapping paths, with completion-driven
// resubmission. Identical construction for every allocation step (nil is
// the incremental allocator), so completion times are comparable bit for
// bit across allocators.
func buildChurn(seed int64, step func(*Engine)) (end float64, completions []float64) {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	e.allocStep = step
	nRes := 4 + rng.Intn(12)
	resources := make([]*Resource, nRes)
	for i := range resources {
		resources[i] = NewResource("r", 1+rng.Float64()*99)
	}
	record := func(now float64) { completions = append(completions, now) }
	randPath := func() []*Resource {
		var path []*Resource
		for _, r := range resources {
			if rng.Intn(4) == 0 {
				path = append(path, r)
			}
		}
		if len(path) == 0 {
			path = append(path, resources[rng.Intn(nRes)])
		}
		return path
	}
	nFlows := 8 + rng.Intn(56)
	for i := 0; i < nFlows; i++ {
		size := rng.Float64()*40 + 0.5
		path := randPath()
		if rng.Intn(2) == 0 {
			e.Submit("f", size, path, record)
		} else {
			at := rng.Float64() * 20
			e.At(at, func(now float64) { e.Submit("g", size, path, record) })
		}
	}
	// A few completion-chained resubmissions to churn mid-run.
	for i := 0; i < 5; i++ {
		size := rng.Float64()*10 + 0.5
		path := randPath()
		e.Submit("h", size, path, func(now float64) {
			record(now)
			e.Submit("h2", size/2, path, record)
		})
	}
	end = e.Run(0)
	return end, completions
}

// TestDifferentialIncrementalVsReference runs 200 randomized churn seeds
// under the full-recompute reference and the incremental allocator and
// requires bit-identical end times and completion sequences.
func TestDifferentialIncrementalVsReference(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		refEnd, refC := buildChurn(seed, (*Engine).allocReferenceStep)
		end, c := buildChurn(seed, nil)
		if math.Float64bits(refEnd) != math.Float64bits(end) {
			t.Fatalf("seed %d: end time diverged: reference %v, incremental %v", seed, refEnd, end)
		}
		if len(refC) != len(c) {
			t.Fatalf("seed %d: completion count diverged: reference %d, incremental %d", seed, len(refC), len(c))
		}
		for i := range refC {
			if math.Float64bits(refC[i]) != math.Float64bits(c[i]) {
				t.Fatalf("seed %d: completion %d diverged: reference %v, incremental %v", seed, i, refC[i], c[i])
			}
		}
		// The verify step re-checks every recompute internally and panics
		// on any bitwise rate mismatch mid-run, not just at completions.
		buildChurn(seed, (*Engine).allocVerifyStep)
	}
}

// tieBreakRates builds the crafted cross-component near-tie topology and
// returns the four long-lived flows' rates after the trigger completion.
//
// Component B is a single resource X whose lone flow's fair share sits
// 1.8e-15 above component A's R2 share and 0.9e-15 above its R1 share —
// every adjacent pair of shares is inside the old comparator's 1e-15
// tolerance band, but the extremes are outside it. Under the old banded
// comparator the winner between R1 and R2 depended on whether X's share
// was the running best when they were scanned: the global reference scan
// (X first) froze R2's flows first, while a component-local scan of A
// froze R1's — a genuine cross-partition divergence. The total-order
// comparator picks R2 (strictly smallest share) under every partition,
// and the later exact tie between X and R1 (their shares collapse to the
// same float) is broken by creation index identically everywhere.
func tieBreakRates(step func(*Engine)) [4]float64 {
	e := NewEngine()
	e.allocStep = step
	x := NewResource("x", 1+1.8e-15)
	r1 := NewResource("r1", 2+1.8e-15)
	r2 := NewResource("r2", 2.0)
	fB := e.Submit("fB", 1e6, []*Resource{x}, nil)
	// g0 is the trigger: its completion dirties only component A, forcing
	// the incremental allocator onto the component-local scan while the
	// reference rescans everything.
	e.Submit("g0", 1e-6, []*Resource{r1}, nil)
	g1 := e.Submit("g1", 1e6, []*Resource{r1}, nil)
	g2 := e.Submit("g2", 1e6, []*Resource{r1, r2}, nil)
	g3 := e.Submit("g3", 1e6, []*Resource{r2}, nil)
	e.At(1, func(float64) { e.Stop() })
	e.Run(0)
	return [4]float64{fB.Rate(), g1.Rate(), g2.Rate(), g3.Rate()}
}

// TestCrossComponentTieBreakPartitionIndependent is the regression test
// for the waterfill determinism hole: on the crafted topology the old
// banded comparator made the incremental (component-local) allocator
// freeze different flows than the global reference scan. The total order
// must produce bit-identical rates under every partition — and exactly
// the rates the strict global minimum dictates.
func TestCrossComponentTieBreakPartitionIndependent(t *testing.T) {
	ref := tieBreakRates((*Engine).allocReferenceStep)
	names := [4]string{"fB", "g1", "g2", "g3"}
	// The strict minimum after the trigger completes is R2 (share exactly
	// 1.0): its flows g2 and g3 freeze at 1.0. The old component-local
	// scan instead froze g1 and g2 at R1's share 1+9e-16 — so g2 == 1.0
	// is precisely the bit the old comparator got wrong.
	if ref[2] != 1.0 || ref[3] != 1.0 {
		t.Fatalf("reference g2/g3 rates = %v/%v, want exactly 1.0 (R2 is the strict bottleneck)", ref[2], ref[3])
	}
	// X's and R1's residual shares collapse to the same float: the exact
	// tie the creation-index order resolves.
	if math.Float64bits(ref[0]) != math.Float64bits(ref[1]) {
		t.Fatalf("fB and g1 rates differ (%v vs %v), want the exact tie", ref[0], ref[1])
	}
	for _, alloc := range []struct {
		name string
		step func(*Engine)
	}{{"incremental", nil}, {"verify", (*Engine).allocVerifyStep}} {
		got := tieBreakRates(alloc.step)
		for i := range ref {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
				t.Errorf("%s: flow %s rate %v (%#016x) != reference %v (%#016x)",
					alloc.name, names[i], got[i], math.Float64bits(got[i]), ref[i], math.Float64bits(ref[i]))
			}
		}
	}
}

// psRounds runs a PS-shaped load: each of n workers computes on its own
// CPU (a one-flow component), then pushes over its NIC and the shared PS
// NIC (one component every in-flight push joins), for the given rounds.
// It returns every completion as (label, time) in delivery order.
func psRounds(step func(*Engine), n, rounds int) (log []string) {
	e := NewEngine()
	e.allocStep = step
	ps := NewResource("psnic", 40)
	for i := 0; i < n; i++ {
		cpu := NewResource("cpu", 2+float64(i%3))
		nic := NewResource("nic", 10)
		left := rounds
		var compute func(now float64)
		push := func(now float64) {
			log = append(log, fmt.Sprintf("c%d %x", i, math.Float64bits(now)))
			e.Submit("push", 8+float64(i%4), []*Resource{nic, ps}, compute)
		}
		compute = func(now float64) {
			if now > 0 {
				log = append(log, fmt.Sprintf("p%d %x", i, math.Float64bits(now)))
			}
			if left--; left >= 0 {
				e.Submit("compute", 1+float64(i%5)/4, []*Resource{cpu}, push)
			}
		}
		compute(0)
	}
	e.Run(0)
	return log
}

// coincidentBatch submits flows that all complete inside one clock slack
// of t = 1000 but in a different order than they were submitted: five
// one-flow components and one two-flow component, with completion times
// spread over three ulps and two exact ties that only the submission
// order breaks. It returns each completion as (label, time) in delivery
// order.
func coincidentBatch(step func(*Engine)) (log []string) {
	e := NewEngine()
	e.allocStep = step
	ulps := func(n int) float64 {
		x := 1000.0
		for ; n > 0; n-- {
			x = math.Nextafter(x, math.Inf(1))
		}
		return x
	}
	shared := NewResource("shared", 2)
	for _, fl := range []struct {
		label string
		ulps  int
		res   *Resource
	}{
		{"a", 2, nil}, {"b", 0, nil}, {"c", 3, nil}, {"d", 0, shared},
		{"e", 1, nil}, {"f", 0, nil}, {"g", 1, shared},
	} {
		res := fl.res // two flows share it at rate 1 each
		if res == nil {
			res = NewResource(fl.label, 1)
		}
		label := fl.label
		e.Submit(label, ulps(fl.ulps), []*Resource{res}, func(now float64) {
			log = append(log, fmt.Sprintf("%s %x", label, math.Float64bits(now)))
		})
	}
	e.Run(0)
	return log
}

// TestCoincidentDeliveryMatchesReference pins the completion heap's
// delivery order: flows due inside one clock slack, in different
// components and within one, are delivered in one batch in exact (doneAt,
// submission) order, whatever component record held them, bit for bit as
// under the reference step. The PS-shaped rounds cover the same property
// under churn, with the verify step checking the records after every
// recompute.
func TestCoincidentDeliveryMatchesReference(t *testing.T) {
	got := coincidentBatch((*Engine).allocVerifyStep)
	var order []string
	for _, l := range got {
		order = append(order, strings.Fields(l)[0])
	}
	// b, d, f tie at exactly 1000 (submission order), then e and g one ulp
	// later, a at two ulps and c at three; all at the batch's clock.
	if want := "b d f e g a c"; strings.Join(order, " ") != want {
		t.Fatalf("delivery order %v, want %s", order, want)
	}
	for _, l := range got {
		if when := strings.Fields(l)[1]; when != fmt.Sprintf("%x", math.Float64bits(1000)) {
			t.Fatalf("completion %s delivered at %s, want the batch clock 1000", l, when)
		}
	}
	for _, tc := range []struct {
		name     string
		ref, got []string
	}{
		{"coincident", coincidentBatch((*Engine).allocReferenceStep), got},
		{"psRounds", psRounds((*Engine).allocReferenceStep, 12, 6), psRounds((*Engine).allocVerifyStep, 12, 6)},
	} {
		if len(tc.got) != len(tc.ref) {
			t.Fatalf("%s: %d completions, reference %d", tc.name, len(tc.got), len(tc.ref))
		}
		for i := range tc.ref {
			if tc.got[i] != tc.ref[i] {
				t.Fatalf("%s: completion %d = %s, reference %s", tc.name, i, tc.got[i], tc.ref[i])
			}
		}
	}
}

// TestWaterfillOrderFree pins the property that lets the allocator skip
// sorting: waterfill's rates do not depend on the order of a component's
// resource span, its flow span, or any r.flows list. In each of the two
// components two resources tie exactly at fair share 10/3 (10 over 3 flow
// crossings, 20 over 6), so only creation index picks the bottleneck, and
// the residual shares after it round differently depending on which
// resource froze first; two paths cross one resource twice. Every
// permutation must reproduce the as-built rates bit for bit.
func TestWaterfillOrderFree(t *testing.T) {
	e := NewEngine()
	a, b, x := NewResource("a", 10), NewResource("b", 20), NewResource("x", 7)
	c, d := NewResource("c", 10), NewResource("d", 20)
	all := []*Resource{a, b, x, c, d}
	for _, path := range [][]*Resource{
		{a, b}, {a}, {a}, {b}, {b}, {b}, {b}, {b, x}, {x},
		{c, c}, {c, d}, {d, d}, {d}, {d}, {d},
	} {
		e.Submit("f", 1e9, path, nil)
	}
	e.expandDirty()
	if len(e.comps) != 2 {
		t.Fatalf("topology has %d components, want 2", len(e.comps))
	}
	waterfillAll := func() []uint64 {
		var bits []uint64
		for _, cs := range e.comps {
			waterfill(e.queue[cs.r0:cs.r1], e.affected[cs.f0:cs.f1])
		}
		for _, f := range e.active {
			bits = append(bits, math.Float64bits(f.rate))
		}
		for _, r := range all {
			bits = append(bits, math.Float64bits(r.lastRate))
		}
		return bits
	}
	want := waterfillAll()
	rng := rand.New(rand.NewSource(1))
	for perm := 0; perm < 50; perm++ {
		for _, r := range all {
			rng.Shuffle(len(r.flows), func(i, j int) { r.flows[i], r.flows[j] = r.flows[j], r.flows[i] })
		}
		for _, cs := range e.comps {
			res, fls := e.queue[cs.r0:cs.r1], e.affected[cs.f0:cs.f1]
			rng.Shuffle(len(res), func(i, j int) { res[i], res[j] = res[j], res[i] })
			rng.Shuffle(len(fls), func(i, j int) { fls[i], fls[j] = fls[j], fls[i] })
		}
		got := waterfillAll()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("permutation %d: value %d = %#016x, as built %#016x", perm, i, got[i], want[i])
			}
		}
	}
}

// TestAllocVerifyMatchesOnDirectedScenarios runs the verify step over the
// deterministic unit scenarios exercised elsewhere in the suite: uneven
// paths, freed capacity, multi-resource bottlenecks.
func TestAllocVerifyMatchesOnDirectedScenarios(t *testing.T) {
	e := NewEngine()
	e.allocStep = (*Engine).allocVerifyStep
	r1 := NewResource("r1", 10)
	r2 := NewResource("r2", 4)
	slow := NewResource("slow", 1)
	e.Submit("A", 40, []*Resource{r1}, nil)
	e.Submit("B", 10, []*Resource{r1, r2}, nil)
	e.Submit("C", 10, []*Resource{r2}, nil)
	e.Submit("D", 3, []*Resource{slow, r1}, func(now float64) {
		e.Submit("E", 5, []*Resource{r2, slow}, nil)
	})
	e.Run(0)
	if got := e.Stats().AllocRecomputes; got == 0 {
		t.Fatal("verify run performed no recomputes")
	}
}

// TestAllocSkipReusesAllocation asserts the incremental allocator skips
// recomputation on steps whose flow set is unchanged (timer-only steps)
// and that the skipped allocation is still correct.
func TestAllocSkipReusesAllocation(t *testing.T) {
	e := NewEngine()
	r := NewResource("r", 10)
	f := e.Submit("f", 100, []*Resource{r}, nil)
	for i := 1; i <= 5; i++ {
		e.At(float64(i), func(float64) {}) // timer-only steps: no membership change
	}
	e.At(6, func(float64) { e.Stop() })
	e.Run(0)
	st := e.Stats()
	if st.AllocSkipped == 0 {
		t.Errorf("expected skipped allocations on timer-only steps, got stats %+v", st)
	}
	if st.AllocRecomputes == 0 {
		t.Errorf("expected at least one recompute, got stats %+v", st)
	}
	if f.Rate() != 10 {
		t.Errorf("flow rate = %v, want 10", f.Rate())
	}
	if got := r.BusyIntegral(); !almostEqual(got, 60, 1e-9) {
		t.Errorf("busy integral = %v, want 60 (rate held across skipped steps)", got)
	}
}

// TestAllocateSteadyStateZeroAllocs pins the tentpole property: once the
// engine's scratch buffers are warm, a dirty recompute allocates nothing,
// whether it re-waterfills one 64-flow component or one small component
// among many.
func TestAllocateSteadyStateZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name     string
		topology func(*Engine) []*Resource
	}{{"ring", ringTopology}, {"sparse", sparseTopology}} {
		e := NewEngine()
		dirty := tc.topology(e)
		e.allocate() // warm the queue/affected buffers
		i := 0
		avg := testing.AllocsPerRun(100, func() {
			e.dirty = append(e.dirty, dirty[i%len(dirty)])
			i++
			e.allocate()
		})
		if avg != 0 {
			t.Errorf("%s: steady-state recompute allocates %.1f times per run, want 0", tc.name, avg)
		}
	}
}

// TestAffectedComponentIsLocal asserts a membership change in one connected
// component does not re-waterfill flows in another.
func TestAffectedComponentIsLocal(t *testing.T) {
	e := NewEngine()
	ra := NewResource("a", 10)
	rb := NewResource("b", 10)
	e.Submit("a1", 1e9, []*Resource{ra}, nil)
	e.Submit("a2", 1e9, []*Resource{ra}, nil)
	e.Submit("b1", 1e9, []*Resource{rb}, nil)
	e.allocate()
	base := e.Stats().AllocAffectedFlows
	if base != 3 {
		t.Fatalf("initial recompute affected %d flows, want 3", base)
	}
	// New flow in component b: only b's two flows should re-waterfill.
	e.Submit("b2", 1e9, []*Resource{rb}, nil)
	e.allocate()
	if got := e.Stats().AllocAffectedFlows - base; got != 2 {
		t.Errorf("arrival in component b affected %d flows, want 2", got)
	}
}

// TestUtilizationClampCounter asserts genuine accounting drift is counted
// while ulp-level noise stays silent, and that the return value still
// clamps to 1 either way.
func TestUtilizationClampCounter(t *testing.T) {
	r := NewResource("drift", 1)
	r.busyIntegral = 2.5 // 2.5x capacity over 1s: real drift
	before := UtilizationClamps()
	if u := r.Utilization(1); u != 1 {
		t.Errorf("clamped utilization = %v, want 1", u)
	}
	if got := UtilizationClamps() - before; got != 1 {
		t.Errorf("clamp count delta = %d, want 1", got)
	}
	noisy := NewResource("noise", 1)
	noisy.busyIntegral = 1 + 1e-12 // within float-noise tolerance
	before = UtilizationClamps()
	if u := noisy.Utilization(1); u != 1 {
		t.Errorf("noise utilization = %v, want 1", u)
	}
	if got := UtilizationClamps() - before; got != 0 {
		t.Errorf("ulp-level noise counted as clamp (delta %d), want 0", got)
	}
}

// TestEngineStatsExported asserts Engine.Stats reports the allocator
// counters after a run that recomputes at least once.
func TestEngineStatsExported(t *testing.T) {
	e := NewEngine()
	r := NewResource("r", 5)
	e.Submit("f", 10, []*Resource{r}, nil)
	e.At(1, func(float64) {})
	e.Run(0)
	st := e.Stats()
	if st.AllocRecomputes < 1 || st.AllocAffectedFlows < 1 {
		t.Errorf("stats = %+v, want at least one recompute over one flow", st)
	}
}

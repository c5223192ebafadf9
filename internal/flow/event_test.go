package flow

import (
	"math"
	"testing"
)

// TestHighRateCompletionKeepsWork is the regression test for the old
// rate-proportional completion epsilon (eps included 1e-9*rate): on a
// high-capacity fabric a flow with a full half unit of work outstanding
// was declared complete the instant its neighbor finished. The completion
// threshold is now clock-relative only, so the second flow must run on
// alone and finish strictly later, with all of its work delivered.
func TestHighRateCompletionKeepsWork(t *testing.T) {
	e := NewEngine()
	fabric := NewResource(2e9)
	var times []float64
	record := func(now float64) { times = append(times, now) }
	e.Submit(1e9, []*Resource{fabric}, record)
	e.Submit(1e9+0.5, []*Resource{fabric}, record)
	end := e.Run(0)

	if len(times) != 2 {
		t.Fatalf("got %d completions, want 2", len(times))
	}
	if times[0] != 1.0 {
		t.Errorf("f1 completed at %v, want exactly 1.0", times[0])
	}
	// Under the old epsilon f2 completed together with f1 at t=1 with 0.5
	// units of work never delivered. Now it finishes the residual alone at
	// the full fabric rate.
	want := 1 + 0.5/2e9
	if times[1] <= times[0] {
		t.Fatalf("f2 completed at %v, not after f1 at %v", times[1], times[0])
	}
	if !almostEqual(times[1], want, 1e-12) {
		t.Errorf("f2 completed at %v, want %v", times[1], want)
	}
	if end != times[1] {
		t.Errorf("run ended at %v, want the last completion %v", end, times[1])
	}
	if got, want := fabric.BusyIntegral(), 2e9+0.5; !almostEqual(got, want, 1e-9) {
		t.Errorf("busy integral = %v, want %v (no work forgiven)", got, want)
	}
}

// TestCoincidentTimersLargeClock is the regression test for the old
// absolute 1e-12 timer tolerance: at t=1e5 one ulp is ~1.5e-11, so two
// timers computed via different roundings of the same instant landed one
// loop iteration apart and observed different clocks. The clock-relative
// slack must fire both in the same step at the same now.
func TestCoincidentTimersLargeClock(t *testing.T) {
	e := NewEngine()
	base := 1e5
	ulpAbove := math.Nextafter(base, math.Inf(1))
	if ulpAbove-base <= 1e-12 {
		t.Fatalf("test setup: one ulp at %v is %v, not above the old 1e-12 tolerance", base, ulpAbove-base)
	}
	n := countSteps(e, (*Engine).allocIncrementalStep)
	var fired []float64
	e.At(base, func(now float64) { fired = append(fired, now) })
	e.At(ulpAbove, func(now float64) { fired = append(fired, now) })
	e.Run(0)

	if len(fired) != 2 {
		t.Fatalf("got %d timer firings, want 2", len(fired))
	}
	if math.Float64bits(fired[0]) != math.Float64bits(fired[1]) {
		t.Errorf("coincident timers observed different clocks: %v vs %v (delta %v)",
			fired[0], fired[1], fired[1]-fired[0])
	}
	if got := n.steps; got != 1 {
		t.Errorf("coincident timers took %d steps, want 1", got)
	}
}

// TestUlpMatchesNextafter pins the bit-pattern ulp that clockSlack uses
// against math.Nextafter over the cases where float spacing changes: zero,
// the subnormals, the smallest normal, powers of two on either side of a
// binade edge, clocks past the old 1e-12 floor, and MaxFloat64, whose
// successor is +Inf. clockSlack must match the Nextafter form everywhere.
func TestUlpMatchesNextafter(t *testing.T) {
	for _, x := range []float64{
		0, math.SmallestNonzeroFloat64, 1e-310, 0x1p-1022, 0x1p-1022 - 0x1p-1074,
		0.5, 1, 2, 4096, 0x1p52, 0x1p53, 1e5, 86400, math.Nextafter(1, 0), math.MaxFloat64,
	} {
		want := math.Nextafter(x, math.Inf(1)) - x
		if got := ulp(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("ulp(%g) = %g, Nextafter gives %g", x, got, want)
		}
		slack := math.Max(4*want, 1e-12)
		for _, tx := range []float64{x, -x} {
			if got := clockSlack(tx); math.Float64bits(got) != math.Float64bits(slack) {
				t.Errorf("clockSlack(%g) = %g, want %g", tx, got, slack)
			}
		}
	}
}

// TestLazyRemainingMidRun asserts Remaining() folds in progress accrued
// since the flow's component was last settled: with lazy settlement the
// stored remaining is stale between rate changes, but the read must not
// be.
func TestLazyRemainingMidRun(t *testing.T) {
	e := NewEngine()
	r := NewResource(10)
	var f *Flow
	finalRemaining := -1.0
	f = e.Submit(100, []*Resource{r}, func(float64) { finalRemaining = f.Remaining() })
	var midRemaining, midBusy float64
	e.At(3, func(float64) {
		midRemaining = f.Remaining()
		midBusy = r.BusyIntegral()
	})
	e.Run(0)
	if !almostEqual(midRemaining, 70, 1e-9) {
		t.Errorf("Remaining at t=3 = %v, want 70", midRemaining)
	}
	if !almostEqual(midBusy, 30, 1e-9) {
		t.Errorf("BusyIntegral at t=3 = %v, want 30", midBusy)
	}
	if finalRemaining != 0 {
		t.Errorf("Remaining at completion = %v, want 0", finalRemaining)
	}
}

// TestFinishedFlowsAreRecycled pins the Flow lifetime contract: Submit
// reuses finished flows, but only once their whole completion batch has
// been delivered, so a callback that submits never receives a flow whose
// batch-mate's callback has yet to run; and a zero-size flow, which
// Submit returns already completed, is never reused.
func TestFinishedFlowsAreRecycled(t *testing.T) {
	e := NewEngine()
	r := NewResource(10)
	zero := e.Submit(0, []*Resource{r}, nil)
	var a, b, c *Flow
	// a and b share r at 5/s each and finish together at t=2.
	a = e.Submit(10, []*Resource{r}, func(float64) {
		c = e.Submit(10, []*Resource{r}, nil)
	})
	b = e.Submit(10, []*Resource{r}, func(float64) {
		if c == b {
			t.Error("b was handed out again before its own callback ran")
		}
	})
	e.Run(0)
	if c == a || c == b || c == zero {
		t.Fatal("a flow was reused before its completion batch was delivered")
	}
	reused := map[*Flow]bool{}
	for i := 0; i < 3; i++ {
		reused[e.Submit(1, []*Resource{r}, nil)] = true
	}
	if !reused[a] || !reused[b] || !reused[c] {
		t.Error("Submit did not reuse the finished flows")
	}
	if reused[zero] {
		t.Error("a zero-size flow was reused")
	}
}

// TestFlowChurnZeroAllocs pins the engine's half of an allocation-free
// simulation: once the free list and scratch buffers are warm, a run that
// completes and resubmits flows on a shared path allocates nothing.
func TestFlowChurnZeroAllocs(t *testing.T) {
	e := NewEngine()
	path := []*Resource{NewResource(10), NewResource(7)}
	left := 0
	var spawn func(float64)
	spawn = func(float64) {
		if left > 0 {
			left--
			e.Submit(1, path, spawn)
		}
	}
	churn := func() {
		left = 100
		e.Submit(1, path, spawn)
		e.Submit(3, path, nil)
		e.Run(0)
	}
	churn() // warm the free list and buffers
	if avg := testing.AllocsPerRun(10, churn); avg != 0 {
		t.Errorf("steady-state flow churn allocates %.1f times per run, want 0", avg)
	}
}

// TestTimerOnlyStepsZeroAllocs pins the event core's steady-state cost: a
// timer-only step — allocator skip, heap peek, timer pop and re-push —
// allocates nothing once buffers are warm, no matter how many flows are
// active (their completion keys are untouched).
func TestTimerOnlyStepsZeroAllocs(t *testing.T) {
	e := NewEngine()
	ringTopology(e)
	var tick func(now float64)
	tick = func(now float64) { e.After(1, tick) }
	e.After(1, tick)
	horizon := 50.0
	e.Run(horizon) // warm buffers, run the initial waterfill
	avg := testing.AllocsPerRun(10, func() {
		horizon += 100
		e.Run(horizon)
	})
	if avg != 0 {
		t.Errorf("timer-only event steps allocate %.1f times per run, want 0", avg)
	}
}

// TestResubmitAfterHorizonResume asserts lazy accounting stays consistent
// across repeated Run calls: settlement at one horizon must not distort
// progress or busy accounting observed at the next.
func TestResubmitAfterHorizonResume(t *testing.T) {
	e := NewEngine()
	r := NewResource(10)
	f := e.Submit(100, []*Resource{r}, nil)
	e.Run(4)
	if got := f.Remaining(); !almostEqual(got, 60, 1e-9) {
		t.Fatalf("Remaining after first horizon = %v, want 60", got)
	}
	end := e.Run(0)
	if !almostEqual(end, 10, 1e-9) {
		t.Errorf("flow finished at %v, want 10 (horizon settlement must not lose progress)", end)
	}
	if got := r.BusyIntegral(); !almostEqual(got, 100, 1e-9) {
		t.Errorf("busy integral = %v, want 100", got)
	}
}

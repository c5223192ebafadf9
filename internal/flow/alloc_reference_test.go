package flow

// The differential oracle: the pre-incremental full-recompute allocator,
// kept only for tests. Production engines always run the incremental
// allocator (alloc.go); a test swaps one of these steps in through
// Engine.allocStep (or newEngineAllocStep, for engines another package
// builds) and compares the results bit for bit. The reference recompute
// rewrites unaffected components' rates with bit-identical values (the
// restriction property in alloc.go), so it settles only the dirty
// components, exactly as the incremental step does.

import (
	"fmt"
	"math"
	"sort"
)

// allocReferenceStep runs the full recompute. Settlement and re-keying
// still follow the incremental allocator's dirty-set discipline so the
// float sequences match it exactly; the reference merely computes every
// rate from scratch instead of only the affected ones.
func (e *Engine) allocReferenceStep() {
	if len(e.dirty) > 0 {
		e.expandDirty()
		for _, c := range e.comps {
			res := e.queue[c.r0:c.r1]
			for _, r := range res {
				e.settleResource(r)
			}
			for _, f := range e.affected[c.f0:c.f1] {
				e.settleFlow(f)
			}
			if c.f0 == c.f1 {
				// Dead component: the dirty resource's last flow left. The
				// full recompute never visits it, so zero the rate here
				// (the incremental waterfill of an empty span does the
				// same) or end-of-run settlement would accrue phantom busy.
				for _, r := range res {
					r.lastRate = 0
				}
			}
		}
		e.allocReference()
		e.rekeyAffected()
	} else {
		// No membership change: the recompute is idempotent and rewrites
		// every rate with identical bits, so neither settlement nor
		// re-keying is needed.
		e.allocReference()
	}
	e.noteRecompute(len(e.active))
}

// allocReference is the pre-incremental allocator, kept verbatim apart
// from the shared bottleneck total order: a full map-backed recompute over
// every active flow, scanned in submission order. It writes only f.rate
// and r.lastRate, so running it never corrupts the incremental bookkeeping
// (remaining/nflows are re-initialized by every waterfill).
func (e *Engine) allocReference() {
	type resState struct {
		res       *Resource
		remaining float64 // capacity not yet assigned
		nflows    int     // unfrozen flows through this resource
	}
	// The active set is unordered (completion swap-removes); the reference
	// scan is defined over submission order.
	act := make([]*Flow, len(e.active))
	copy(act, e.active)
	sort.Slice(act, func(i, j int) bool { return act[i].seq < act[j].seq })
	states := map[*Resource]*resState{}
	flowResources := make(map[*Flow][]*resState, len(act))
	for _, f := range act {
		f.rate = 0
		for _, r := range f.path {
			st := states[r]
			if st == nil {
				st = &resState{res: r, remaining: r.capacity}
				states[r] = st
			}
			st.nflows++
			flowResources[f] = append(flowResources[f], st)
		}
	}
	for r := range states {
		r.lastRate = 0
	}
	unfrozen := make([]*Flow, len(act))
	copy(unfrozen, act)
	for len(unfrozen) > 0 {
		// Bottleneck = strict minimum under the (share, creation index)
		// total order — identical to waterfill.
		var bottleneck *resState
		best := math.Inf(1)
		for _, f := range unfrozen {
			for _, st := range flowResources[f] {
				if st.nflows == 0 {
					continue
				}
				share := st.remaining / float64(st.nflows)
				if share < best || (share == best && st.res.index < bottleneck.res.index) {
					best = share
					bottleneck = st
				}
			}
		}
		if bottleneck == nil {
			break
		}
		// Freeze every unfrozen flow crossing the bottleneck at the fair
		// share; charge that rate to all resources on their paths.
		kept := unfrozen[:0]
		for _, f := range unfrozen {
			crosses := false
			for _, st := range flowResources[f] {
				if st == bottleneck {
					crosses = true
					break
				}
			}
			if !crosses {
				kept = append(kept, f)
				continue
			}
			f.rate = best
			for _, st := range flowResources[f] {
				st.remaining -= best
				if st.remaining < 0 {
					st.remaining = 0
				}
				st.nflows--
			}
		}
		unfrozen = kept
	}
	for r, st := range states {
		r.lastRate = r.capacity - st.remaining
		if r.lastRate < 0 {
			r.lastRate = 0
		}
	}
}

// verifyAllocation snapshots the incremental allocator's output, re-runs
// the reference allocator over the full active set, and panics on any
// bitwise disagreement. Rates are compared with math.Float64bits — exact
// equality, no tolerance — because the golden corpus depends on the two
// allocators being interchangeable to the last ulp. Only resources on
// active paths are compared: the reference never touches resources whose
// last flow completed, while the incremental allocator zeroes them (their
// lastRate is dead either way once zeroed — settlement accrues nothing at
// rate zero).
func (e *Engine) verifyAllocation() {
	rates := make([]float64, len(e.active))
	resRates := make(map[*Resource]float64)
	for i, f := range e.active {
		rates[i] = f.rate
		for _, r := range f.path {
			if _, ok := resRates[r]; !ok {
				resRates[r] = r.lastRate
			}
		}
	}
	e.allocReference()
	for i, f := range e.active {
		if math.Float64bits(f.rate) != math.Float64bits(rates[i]) {
			panic(fmt.Sprintf(
				"flow: verify mismatch at t=%g: flow %q incremental rate %v (%#016x) != reference %v (%#016x)",
				e.now, f.label, rates[i], math.Float64bits(rates[i]), f.rate, math.Float64bits(f.rate)))
		}
	}
	for r, inc := range resRates {
		if math.Float64bits(r.lastRate) != math.Float64bits(inc) {
			panic(fmt.Sprintf(
				"flow: verify mismatch at t=%g: resource %q incremental lastRate %v (%#016x) != reference %v (%#016x)",
				e.now, r.name, inc, math.Float64bits(inc), r.lastRate, math.Float64bits(r.lastRate)))
		}
	}
}

// allocVerifyStep runs the incremental step, then cross-checks it against
// the reference with verifyAllocation, panicking on any bitwise
// disagreement. It allocates, so it is for tests only.
func (e *Engine) allocVerifyStep() {
	e.allocIncrementalStep()
	e.verifyAllocation()
}

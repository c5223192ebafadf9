package flow

// Incremental progressive-filling max-min allocation: the engine's only
// allocation path.
//
// Max-min fairness decomposes over connected components of the bipartite
// flow/resource graph: freezing a bottleneck's flows only ever touches
// resources on those flows' paths, so the waterfill of one component never
// reads or writes another. The engine exploits that by keeping, per
// resource, the list of active flows crossing it (Resource.flows) and a
// dirty set seeded by every Submit and completion. An allocation step
// with an empty dirty set reuses the previous rates verbatim — recomputing
// an unchanged max-min allocation is idempotent, so the skip is bit-exact.
// Otherwise a BFS closure from the dirty resources carves the affected
// components into contiguous spans and waterfill runs over just those,
// each component's flows sorted by submission sequence.
//
// Bottleneck selection is a strict total order: smallest fair share first,
// ties broken by Resource creation index. Because the order is total (no
// tolerance band), the minimum over the whole flow set restricted to one
// component equals the minimum computed over that component alone — freeze
// order is provably independent of how the flow set is partitioned, which
// is what makes component-local recomputation bit-exact against a global
// scan. The pre-fix comparator kept the original allocator's 1e-15
// tolerance band; any banded "tie" relation is non-transitive, so the
// running minimum depended on scan order and components could in principle
// freeze differently under a different partition. The band is gone; shares
// that differ by one ulp are simply different, and exact ties are resolved
// by creation index identically under every partition.
//
// Everything on this path is allocation-free in steady state: epoch stamps
// (Resource.visit / Flow.visit) replace membership maps and the queue /
// affected / comps / worklist buffers live on the Engine and are reused
// across events.
//
// The pre-incremental full recompute lives on only in this package's
// tests, as the differential oracle (alloc_reference_test.go). Tests swap
// it in through Engine.allocStep, or run it after every incremental step
// and require every flow rate and resource aggregate to match bit for bit
// (math.Float64bits equality, not a tolerance) — the property the simtest
// golden corpus depends on. The oracle shares dirty-set expansion,
// settlement and completion-heap re-keying with this file; only the rate
// computation between them differs.
//
// There is deliberately no parallel path. A waterfill sharded over a
// goroutine pool was measured and deleted. On PS-shaped simulations 40% to
// ~100% of recomputes have two or more dirty components, but those average
// only ~1-35 flows each, below the cost of spawning a goroutine. On a
// 2-vCPU Xeon the pool ran at 0.85x of serial even on its own best case
// (128 components of 16 flows), and real ddnnsim runs were slower with it
// and allocated more.

import (
	"math"
	"sort"
)

// allocSizeBounds buckets the affected-flow count of each recompute
// (le semantics; one implicit overflow bucket follows). allocSizeBuckets
// mirrors the bounds as float64 observation values for obs export, with a
// final representative value that lands in the +Inf bucket.
var (
	allocSizeBounds  = [...]int{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}
	allocSizeBuckets = [...]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048}
)

// allocate runs one allocation step: the incremental allocator, unless a
// test has installed another step in e.allocStep.
func (e *Engine) allocate() {
	if e.allocStep != nil {
		e.allocStep(e)
		return
	}
	e.allocIncrementalStep()
}

// allocIncrementalStep re-runs waterfilling over the connected components
// reachable from the dirty resources, or skips entirely when no flow
// membership changed. Steady-state cost is zero allocations.
func (e *Engine) allocIncrementalStep() {
	if len(e.dirty) == 0 {
		e.stats.AllocSkipped++
		return
	}
	e.expandDirty()
	for _, c := range e.comps {
		e.runComp(c)
	}
	e.rekeyAffected()
	e.noteRecompute(len(e.affected))
}

// expandDirty carves the connected components reachable from the dirty
// resources into contiguous spans of e.queue (resources) and e.affected
// (flows), one compSpan per component in dirty-discovery order — which is
// deterministic, because dirt is appended in Submit/completion order. Each
// component's flow span is then sorted by submission sequence: that is the
// scan order the waterfill tie-break uses, and sorting makes it
// independent of r.flows order (which swap-removal scrambles).
func (e *Engine) expandDirty() {
	e.allocEpoch++
	ep := e.allocEpoch
	queue := e.queue[:0]
	aff := e.affected[:0]
	comps := e.comps[:0]
	for _, seed := range e.dirty {
		if seed.visit == ep {
			continue
		}
		ci := int32(len(comps))
		r0, f0 := int32(len(queue)), int32(len(aff))
		seed.visit = ep
		seed.comp = ci
		queue = append(queue, seed)
		// BFS over the bipartite graph: resource -> crossing flows ->
		// their paths. Flows discovered from this seed land contiguously
		// in aff[f0:], resources in queue[r0:].
		for i := int(r0); i < len(queue); i++ {
			for _, f := range queue[i].flows {
				if f.visit == ep {
					continue
				}
				f.visit = ep
				f.comp = ci
				aff = append(aff, f)
				for _, r := range f.path {
					if r.visit != ep {
						r.visit = ep
						r.comp = ci
						queue = append(queue, r)
					}
				}
			}
		}
		comps = append(comps, compSpan{r0: r0, r1: int32(len(queue)), f0: f0, f1: int32(len(aff))})
	}
	e.dirty = e.dirty[:0]
	e.queue, e.affected, e.comps = queue, aff, comps
	for _, c := range comps {
		if c.f1-c.f0 > 1 {
			e.spanSort.flows = aff[c.f0:c.f1]
			sort.Sort(&e.spanSort)
		}
	}
	e.spanSort.flows = nil
}

// spanSorter orders one component's flow span by submission sequence. It
// lives on the Engine so sorting allocates nothing (pointer receiver into
// the sort.Interface box).
type spanSorter struct{ flows []*Flow }

func (s *spanSorter) Len() int           { return len(s.flows) }
func (s *spanSorter) Less(i, j int) bool { return s.flows[i].seq < s.flows[j].seq }
func (s *spanSorter) Swap(i, j int)      { s.flows[i], s.flows[j] = s.flows[j], s.flows[i] }

// runComp settles one component's accounting through e.now, then
// waterfills it with the engine's reusable worklist buffer.
func (e *Engine) runComp(c compSpan) {
	res := e.queue[c.r0:c.r1]
	fls := e.affected[c.f0:c.f1]
	for _, r := range res {
		e.settleResource(r)
	}
	for _, f := range fls {
		e.settleFlow(f)
	}
	e.wfScratch = e.waterfill(res, fls, e.wfScratch)
}

// rekeyAffected recomputes the completion-heap key of every flow that was
// just settled and re-rated, in span order. The pop order the event loop
// observes depends only on the (doneAt, seq) keys, not on re-key order.
func (e *Engine) rekeyAffected() {
	for _, f := range e.affected {
		switch {
		case f.remaining <= 0:
			f.doneAt = e.now
		case f.rate > 0:
			f.doneAt = e.now + f.remaining/f.rate
		default:
			f.doneAt = math.Inf(1)
		}
		e.heapFix(f)
	}
}

// waterfill runs progressive filling restricted to the given resources and
// flows (one affected component). It is the same algorithm as
// allocReference with the map-backed scratch state moved onto the Resource
// structs: repeatedly find the bottleneck — smallest per-flow fair share,
// ties broken by resource creation index — freeze its flows at that share,
// charge their paths, and continue until every flow is frozen.
//
// work is a reusable buffer for the unfrozen worklist (the flow span
// itself must survive for re-keying); the grown buffer is returned.
func (e *Engine) waterfill(resources []*Resource, flows []*Flow, work []*Flow) []*Flow {
	for _, r := range resources {
		r.remaining = r.capacity
		r.nflows = 0
		r.lastRate = 0
	}
	for _, f := range flows {
		f.rate = 0
		for _, r := range f.path {
			r.nflows++
		}
	}
	unfrozen := append(work[:0], flows...)
	for len(unfrozen) > 0 {
		// Bottleneck = strict minimum under the (share, creation index)
		// total order. Deterministic iteration: scan flows' paths in
		// submission order. Because the order is total, the winner within
		// this component is the same one the global scan would pick for
		// it — partition independence.
		var bottleneck *Resource
		best := math.Inf(1)
		for _, f := range unfrozen {
			for _, r := range f.path {
				if r.nflows == 0 {
					continue
				}
				share := r.remaining / float64(r.nflows)
				if share < best || (share == best && r.index < bottleneck.index) {
					best = share
					bottleneck = r
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
			for _, r := range f.path {
				if r == bottleneck {
					crosses = true
					break
				}
			}
			if !crosses {
				kept = append(kept, f)
				continue
			}
			f.rate = best
			for _, r := range f.path {
				r.remaining -= best
				if r.remaining < 0 {
					r.remaining = 0
				}
				r.nflows--
			}
		}
		unfrozen = kept
	}
	for _, r := range resources {
		r.lastRate = r.capacity - r.remaining
		if r.lastRate < 0 {
			r.lastRate = 0
		}
	}
	return unfrozen[:0]
}

// noteRecompute records one allocator recompute over n affected flows in
// the engine stats and the recompute-size histogram buckets.
func (e *Engine) noteRecompute(n int) {
	e.stats.AllocRecomputes++
	e.stats.AllocAffectedFlows += int64(n)
	i := 0
	for i < len(allocSizeBounds) && n > allocSizeBounds[i] {
		i++
	}
	e.allocSizes[i]++
}

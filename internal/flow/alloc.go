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
// components into contiguous spans and waterfill runs over just those, in
// whatever order the BFS discovered them: nothing on the path depends on
// the order of a span or of any r.flows list (see waterfill). A dirty
// resource whose last flow left gets no span, only its accounting settled
// and its rate zeroed. Each re-waterfilled component then goes into the
// completion heap as one record keyed by its earliest flow
// (rekeyAffected), so a step's heap upkeep is one re-key per component,
// not one per flow.
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
// affected / comps buffers live on the Engine and are reused across
// events.
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

import "math"

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
// deterministic, because dirt is appended in Submit/completion order. The
// order inside a span follows r.flows, which swap-removal scrambles; the
// waterfill and the re-key are both independent of it. A dirty resource
// whose last flow left gets no span: it is settled through now and its
// rate zeroed here, which is all a waterfill of an empty component did,
// so every span holds at least one flow.
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
		seed.visit = ep
		if len(seed.flows) == 0 {
			e.settleResource(seed)
			seed.lastRate = 0
			continue
		}
		r0, f0 := int32(len(queue)), int32(len(aff))
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
				aff = append(aff, f)
				for _, r := range f.path {
					if r.visit != ep {
						r.visit = ep
						queue = append(queue, r)
					}
				}
			}
		}
		comps = append(comps, compSpan{r0: r0, r1: int32(len(queue)), f0: f0, f1: int32(len(aff))})
	}
	e.dirty = e.dirty[:0]
	e.queue, e.affected, e.comps = queue, aff, comps
}

// runComp settles one component's accounting through e.now, then
// waterfills it.
func (e *Engine) runComp(c compSpan) {
	res := e.queue[c.r0:c.r1]
	fls := e.affected[c.f0:c.f1]
	for _, r := range res {
		e.settleResource(r)
	}
	for _, f := range fls {
		e.settleFlow(f)
	}
	waterfill(res, fls)
}

// rekeyAffected recomputes the completion time of every flow that was
// just settled and re-rated, and files each affected component as one
// record keyed by its earliest (doneAt, seq) flow. A component's flows
// were in at most a few live records — each wholly inside it, since a
// live record has lost no flow — or in none (new flows, and those left by
// a popped record). The first live record found is rebuilt in place and
// re-keyed; any other is removed from the heap and pooled. The delivery
// order the event loop observes depends only on the flows' keys, not on
// which record holds them.
func (e *Engine) rekeyAffected() {
	for _, c := range e.comps {
		fls := e.affected[c.f0:c.f1]
		var rec *compRec
		first := fls[0]
		for _, f := range fls {
			switch {
			case f.remaining <= 0:
				f.doneAt = e.now
			case f.rate > 0:
				f.doneAt = e.now + f.remaining/f.rate
			default:
				f.doneAt = math.Inf(1)
			}
			if doneLess(f, first) {
				first = f
			}
			if old := f.rec; old != nil && old != rec && old.idx >= 0 {
				if rec == nil {
					rec = old
				} else {
					e.freeRec(e.cheap.remove(old.idx))
				}
			}
		}
		if rec == nil {
			rec = e.newRec()
		}
		rec.head = nil
		for _, f := range fls {
			f.rec, f.recNext, rec.head = rec, rec.head, f
		}
		rec.first = first
		if rec.idx < 0 {
			e.cheap.push(rec)
		} else {
			e.cheap.fix(rec.idx)
		}
	}
}

// newRec returns a pooled record, or a new one, outside the heap.
func (e *Engine) newRec() *compRec {
	rec := e.recFree
	if rec == nil {
		return &compRec{idx: -1}
	}
	e.recFree, rec.next = rec.next, nil
	return rec
}

// freeRec pools a record that has left the heap.
func (e *Engine) freeRec(rec *compRec) {
	rec.head, rec.first, rec.idx = nil, nil, -1
	rec.next, e.recFree = e.recFree, rec
}

// waterfill runs progressive filling restricted to the given resources and
// flows (one affected component). It is the same algorithm as
// allocReference with the map-backed scratch state moved onto the Resource
// and Flow structs: repeatedly find the bottleneck — smallest per-flow
// fair share, ties broken by resource creation index — freeze its flows
// at that share, charge their paths, and continue until every flow is
// frozen.
//
// No step depends on the order of resources, flows or any r.flows list,
// which is why the spans need no sorting and the result is bit-identical
// to the reference's submission-order scan:
//   - the bottleneck is the minimum under a strict total order, and
//     nflows > 0 marks exactly the resources some unfrozen flow crosses,
//     so scanning the component's resources picks the same winner as
//     scanning the unfrozen flows' paths;
//   - every freeze in a round subtracts the same best from each resource
//     on its path, so each resource sees the same sequence of
//     subtractions whatever order its flows freeze in.
func waterfill(resources []*Resource, flows []*Flow) {
	for _, r := range resources {
		r.remaining = r.capacity
		r.nflows = 0
		r.lastRate = 0
	}
	for _, f := range flows {
		f.rate = 0
		f.frozen = false
		for _, r := range f.path {
			r.nflows++
		}
	}
	for frozen := 0; frozen < len(flows); {
		var bottleneck *Resource
		best := math.Inf(1)
		for _, r := range resources {
			if r.nflows == 0 {
				continue
			}
			share := r.remaining / float64(r.nflows)
			if share < best || (share == best && r.index < bottleneck.index) {
				best = share
				bottleneck = r
			}
		}
		if bottleneck == nil {
			break
		}
		// Freeze every unfrozen flow crossing the bottleneck at the fair
		// share; charge that rate to all resources on their paths. A path
		// that crosses the bottleneck twice lists its flow twice.
		for _, f := range bottleneck.flows {
			if f.frozen {
				continue
			}
			f.frozen = true
			frozen++
			f.rate = best
			for _, r := range f.path {
				r.remaining -= best
				if r.remaining < 0 {
					r.remaining = 0
				}
				r.nflows--
			}
		}
	}
	for _, r := range resources {
		r.lastRate = r.capacity - r.remaining
		if r.lastRate < 0 {
			r.lastRate = 0
		}
	}
}

// noteRecompute records one allocator recompute over n affected flows in
// the engine stats.
func (e *Engine) noteRecompute(n int) {
	e.stats.AllocRecomputes++
	e.stats.AllocAffectedFlows += int64(n)
}

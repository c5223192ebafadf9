// Package flow implements a discrete-event, flow-level ("fluid") simulator
// with max-min fair sharing of resources.
//
// A Resource models anything with a finite service capacity: a CPU core
// (capacity in GFLOPS), a NIC (capacity in MB/s), a disk, a bus. A Flow is a
// finite amount of work (GFLOPs, MB, ...) that must be served by one or more
// resources simultaneously (its path). At any instant every active flow
// receives a rate determined by progressive-filling max-min fairness across
// all resources: no flow can increase its rate without decreasing the rate
// of a flow that has an equal or smaller rate.
//
// The Engine advances simulated time from one flow completion to the next,
// recomputing the allocation whenever the set of active flows changes. This
// captures, without closed-form shortcuts, the contention effects the
// Cynthia paper measures: parameter-server NIC saturation, PS CPU
// saturation, and idle worker CPUs behind a bottleneck.
//
// The allocation is maintained incrementally (see alloc.go): an arrival or
// completion re-runs waterfilling only over the connected components of the
// flow/resource graph it touches, and steps whose flow set did not change
// skip the recomputation entirely. Event selection and accounting are
// indexed and lazy to match: the next completion comes from a min-heap of
// component records, one per connected component, each keyed by its
// earliest (completion time, submission) flow and rebuilt only when its
// component is re-waterfilled; flow progress and per-resource busyIntegral
// are settled only when a component is re-waterfilled (plus once at Run
// exit), so a step that touches one component costs O(affected), not
// O(cluster), and its heap upkeep is one re-key per component, not per
// flow.
// There is one allocator and no way to select another: the pre-incremental
// full recompute survives only in the package's tests, as the oracle the
// incremental allocator is checked against bit for bit.
//
// Flow records are recycled. Once a completion batch's callbacks have all
// returned, the engine puts the finished Flows on
// a free list of its own and hands them out again from Submit, so a
// simulation that keeps a steady number of flows in flight stops
// allocating them. A *Flow returned by Submit is therefore valid only
// until its completion callback returns; do not read it afterwards. A
// flow of size <= 0 completes inside Submit and is never recycled, so the
// pointer Submit returns for it stays valid.
package flow

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"cynthia/internal/obs"
)

// resourceSeq hands out process-wide creation indices. The absolute values
// are meaningless; only the relative order of resources within one engine's
// topology matters, and topologies are built sequentially per engine, so
// the order is deterministic run to run. The counter is atomic because
// independent engines (e.g. the simulations of concurrent jobs) create
// resources concurrently.
var resourceSeq atomic.Int64

// Resource is a finite-capacity service point shared by flows. A Resource
// belongs to at most one Engine at a time: the engine writes its
// accounting and allocator bookkeeping without synchronization (this was
// already the contract — lastRate and busyIntegral have always been
// engine-written).
type Resource struct {
	name     string
	capacity float64 // service units per second (> 0)
	index    int64   // creation sequence: total-order tie-break in waterfill

	// Accounting, maintained by the Engine. busyIntegral is settled lazily:
	// it is current through settledAt, and the interval [settledAt, now) is
	// still accruing at lastRate until the resource's component is next
	// re-waterfilled or the run ends.
	busyIntegral float64 // ∫ allocated-rate dt through settledAt
	lastRate     float64 // total rate allocated at the current instant
	settledAt    float64 // sim time busyIntegral/series are settled through
	series       *Series // optional time series of allocated rate
	owner        *Engine // engine this resource is registered with

	// Allocator bookkeeping, maintained by the Engine (alloc.go).
	flows     []*Flow // active flows crossing, one entry per path occurrence
	visit     int64   // allocation-epoch stamp: in the current affected set
	remaining float64 // waterfill scratch: capacity not yet assigned
	nflows    int     // waterfill scratch: unfrozen flows crossing
}

// NewResource returns a resource with the given name and capacity
// (service units per second). Capacity must be positive.
func NewResource(name string, capacity float64) *Resource {
	if capacity <= 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		panic(fmt.Sprintf("flow: resource %q capacity %v out of range", name, capacity))
	}
	return &Resource{name: name, capacity: capacity, index: resourceSeq.Add(1)}
}

// utilClampTolerance separates genuine accounting drift from the ulp-level
// float noise of summing many per-step busy intervals: ratios within it of
// 1 clamp silently as before, anything above is counted as a clamp event.
const utilClampTolerance = 1e-9

// clampCounter counts, in the default obs registry, the Utilization
// ratios that exceeded 1 by more than utilClampTolerance and were clamped.
// Such clamps mask accounting drift in the engine; the golden corpus
// asserts the count stays zero.
var clampCounter = sync.OnceValue(func() *obs.Counter {
	return obs.Default().Counter("cynthia_flow_util_clamp_total",
		"Resource.Utilization ratios above 1 that were clamped (accounting drift)")
})

// Utilization returns the mean utilization of the resource over [0, now],
// in [0, 1]; see MeanUtilization. The not-yet-settled accrual interval is
// included, so the reading is exact at any observation point, not just
// after a rate change.
func (r *Resource) Utilization(now float64) float64 {
	bi := r.busyIntegral
	if r.lastRate > 0 {
		if dt := now - r.settledAt; dt > 0 {
			bi += r.lastRate * dt
		}
	}
	return MeanUtilization(bi, r.capacity, now)
}

// MeanUtilization returns the mean utilization of a server of the given
// capacity that delivered busy service units over [0, now], in [0, 1]. It
// returns 0 if now is not positive. Ratios above 1 indicate accounting
// drift: they are still clamped (preserving the historical return value),
// but counted by clampCounter instead of being silently masked.
func MeanUtilization(busy, capacity, now float64) float64 {
	if now <= 0 {
		return 0
	}
	u := busy / (capacity * now)
	if u > 1+utilClampTolerance {
		clampCounter().Inc()
	}
	return math.Min(u, 1)
}

// Record attaches a time series that samples the aggregate allocated rate
// on this resource into bins of the given width (seconds).
func (r *Resource) Record(binWidth float64) *Series {
	r.series = NewSeries(binWidth)
	return r.series
}

// Flow is a finite amount of work served concurrently by every resource on
// its path at a common rate.
type Flow struct {
	label     string
	size      float64
	remaining float64 // work left as of settled (lazy; see Remaining)
	path      []*Resource
	rate      float64
	done      func(now float64)
	engine    *Engine
	seq       int64    // submission sequence: completion-order tie-break
	settled   float64  // sim time remaining was last settled at
	doneAt    float64  // predicted completion instant under the current rate
	rec       *compRec // live component record holding the flow, or nil
	recNext   *Flow    // next flow of the same record
	actIdx    int      // position in Engine.active for O(1) removal
	visit     int64    // allocation-epoch stamp: in the current affected set
	frozen    bool     // waterfill scratch: rate fixed in the current waterfill
}

// Engine is a discrete-event fluid simulator. The zero value is not usable;
// use NewEngine.
type Engine struct {
	now     float64
	active  []*Flow // unordered; Flow.actIdx tracks slots for O(1) removal
	timers  timerHeap
	seq     int   // tie-break for deterministic timer ordering
	flowSeq int64 // submission sequence handed to flows
	stopped bool

	// allocStep, when non-nil, replaces the incremental allocation step.
	// It is a test seam: only this package's tests set it, to run the
	// full-recompute oracle or to cross-check the two on every step.
	allocStep func(*Engine)

	// Every resource ever submitted on, so lazy accounting can be settled
	// at Run exit without scanning active flows.
	resources []*Resource

	// cheap is the completion heap: one record per connected component,
	// ordered by its earliest (doneAt, seq) flow. After every allocation
	// step each active flow is in exactly one record; stalled flows carry
	// doneAt = +Inf. A record is rebuilt only when its component is
	// re-waterfilled. recFree lists the records popped or merged away, for
	// reuse; rec0 seeds it, so an engine whose components never overlap in
	// time allocates no record at all.
	cheap   recHeap
	recFree *compRec
	rec0    compRec

	// free holds finished flows for Submit to reuse. A flow joins it only
	// after its whole completion batch has been delivered.
	free []*Flow

	// Incremental-allocator state: dirty seeds the next recompute with the
	// resources whose flow membership changed; the queue/affected/comps
	// buffers are reused across events so the steady-state event loop
	// allocates nothing.
	allocEpoch int64
	dirty      []*Resource
	queue      []*Resource // affected resources, contiguous per component
	affected   []*Flow     // affected flows, contiguous per component
	comps      []compSpan
	finScratch []*Flow

	stats EngineStats
}

// compSpan delimits one connected component inside Engine.queue (resources)
// and Engine.affected (flows): queue[r0:r1] and affected[f0:f1].
type compSpan struct {
	r0, r1 int32
	f0, f1 int32
}

// EngineStats count the engine's own work, for observability: how many
// flows ran, how many timers fired, how many event steps the run took, and
// how much of the max-min allocation work the incremental allocator
// actually performed versus skipped.
type EngineStats struct {
	FlowsCompleted int64
	TimersFired    int64
	Steps          int64
	// AllocRecomputes counts allocator runs that re-waterfilled at least
	// one affected component; AllocSkipped counts steps whose flow set was
	// unchanged, making the previous allocation provably still valid.
	AllocRecomputes int64
	AllocSkipped    int64
	// AllocAffectedFlows totals the flows re-waterfilled across recomputes;
	// divided by AllocRecomputes it yields the mean affected-component
	// size, versus the active-flow count a full recompute would touch.
	AllocAffectedFlows int64
}

// newEngineAllocStep seeds Engine.allocStep for every engine NewEngine
// builds, so tests can switch the allocator of engines that other packages
// (ddnnsim) construct internally. Only this package's tests set it.
var newEngineAllocStep func(*Engine)

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	e := &Engine{allocStep: newEngineAllocStep}
	e.rec0.idx = -1
	e.recFree = &e.rec0
	return e
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Submit adds a flow of the given size over path, invoking done (if
// non-nil) at the simulated instant the flow completes. A flow of size <= 0
// completes immediately (done runs during the current event, before the
// engine advances). Submit may be called from done callbacks.
//
// The engine keeps path (it is not copied) and never modifies it, so one
// path slice may serve every flow on the same resources. The returned
// *Flow is valid until done returns: the engine then recycles it for a
// later Submit. Only a zero-size flow's record is never recycled.
func (e *Engine) Submit(label string, size float64, path []*Resource, done func(now float64)) *Flow {
	if math.IsNaN(size) || math.IsInf(size, 0) {
		panic(fmt.Sprintf("flow: flow %q size %v out of range", label, size))
	}
	if len(path) == 0 {
		panic(fmt.Sprintf("flow: flow %q has empty path", label))
	}
	var f *Flow
	if n := len(e.free); n > 0 {
		f = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		f = &Flow{engine: e}
	}
	// A recycled record already has rate 0 and no component record, its
	// visit stamp is an older epoch, and the allocator writes doneAt and
	// frozen before it reads them.
	f.label, f.size, f.remaining, f.path, f.done, f.settled = label, size, size, path, done, e.now
	if size <= 0 {
		e.stats.FlowsCompleted++
		if done != nil {
			done(e.now)
		}
		return f
	}
	e.flowSeq++
	f.seq = e.flowSeq
	f.actIdx = len(e.active)
	e.active = append(e.active, f)
	for _, r := range path {
		r.flows = append(r.flows, f)
		if r.owner != e {
			// First time this engine sees the resource: register it for
			// end-of-run settlement and pin its accounting clock to now
			// (nothing accrued on this engine before the flow arrived).
			r.owner = e
			r.settledAt = e.now
			e.resources = append(e.resources, r)
		}
	}
	// Until its component is waterfilled the flow has no rate and no
	// record; the next allocate, which runs before time advances, gives it
	// both.
	e.dirty = append(e.dirty, path...)
	return f
}

// At schedules fn to run at the given absolute simulated time. Times in the
// past (or present) run at the current time during the next step.
func (e *Engine) At(t float64, fn func(now float64)) {
	if math.IsNaN(t) {
		panic("flow: At with NaN time")
	}
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.timers.push(timer{at: t, seq: e.seq, fn: fn})
}

// clockSlack returns the event-coincidence tolerance at simulated time t:
// events within this window of the clock are treated as simultaneous. It
// is clock-relative — a few ulps of t — with a 1e-12 floor near zero, so
// same-instant events computed via different roundings coincide at any
// clock magnitude (an absolute 1e-12 is below one ulp once t > ~4096s),
// while the window stays physically negligible (4 ulps of a day-long clock
// is ~0.1µs). The same slack bounds the work residual forgiven at
// completion, making that threshold clock-relative too instead of the old
// rate-proportional epsilon that could retire ≥1 unit of real work on a
// high-capacity fabric.
func clockSlack(t float64) float64 {
	if t < 0 {
		t = -t
	}
	s := 4 * (math.Nextafter(t, math.Inf(1)) - t)
	if s < 1e-12 {
		s = 1e-12
	}
	return s
}

// Run processes events until no active flows or timers remain, until the
// optional horizon (seconds, <= 0 means none) is reached, or until Stop is
// called. It returns the final simulated time. Lazy accounting is settled
// through the final time before returning, so Utilization and attached
// Series are exact at the returned instant.
func (e *Engine) Run(horizon float64) float64 {
	e.stopped = false
	for !e.stopped {
		if len(e.active) == 0 && e.timers.Len() == 0 {
			break
		}
		e.stats.Steps++
		e.allocate()
		// Earliest event: completion-heap top vs timer-heap top. Every
		// active flow is in a record (stalled ones at +Inf), so this is
		// O(1) instead of a scan over the active set.
		next := math.Inf(1)
		if len(e.cheap) > 0 {
			next = e.cheap[0].first.doneAt
		}
		if e.timers.Len() > 0 {
			if at := e.timers.peek().at; at < next {
				next = at
			}
		}
		if math.IsInf(next, 1) {
			// Active flows exist but none can progress and no timers
			// remain: deadlock. Surface it loudly rather than spinning.
			panic(fmt.Sprintf("flow: deadlock at t=%g with %d stalled flows", e.now, len(e.active)))
		}
		if horizon > 0 && next > horizon {
			e.now = horizon
			break
		}
		e.now = next
		e.completeFinished()
		e.fireTimers()
	}
	e.settleAll()
	return e.now
}

// settleFlow folds progress since the flow's last settlement into its
// remaining work and re-pins the settlement clock to now. Called exactly
// when the flow's component is about to be re-waterfilled (before rates
// are overwritten) and at completion. The test oracle settles through the
// same calls, so its float arithmetic sequence, and hence its bits, match
// the incremental allocator's.
func (e *Engine) settleFlow(f *Flow) {
	if dt := e.now - f.settled; dt > 0 {
		f.remaining -= f.rate * dt
		if f.remaining < 0 {
			f.remaining = 0
		}
	}
	f.settled = e.now
}

// settleResource folds the accrual interval [settledAt, now) at lastRate
// into busyIntegral (and the attached series), then re-pins settledAt.
// Safe because allocate runs before time advances in every step: a stale
// lastRate never spans an interval during which it was not the true rate.
func (e *Engine) settleResource(r *Resource) {
	if dt := e.now - r.settledAt; dt > 0 {
		if r.lastRate > 0 {
			r.busyIntegral += r.lastRate * dt
			if r.series != nil {
				r.series.Accumulate(r.settledAt, e.now, r.lastRate)
			}
		}
		r.settledAt = e.now
	}
}

// settleAll settles every registered resource through e.now. Called once
// at Run exit (and harmless to repeat): the only place accounting cost is
// O(cluster) instead of O(affected).
func (e *Engine) settleAll() {
	for _, r := range e.resources {
		e.settleResource(r)
	}
}

// completeFinished pops every record whose earliest flow falls within the
// clock slack of the current time and runs the callbacks of the due flows
// in (doneAt, submission) order, whichever records held them. A popped
// record's flows that are not due stay active and
// lose their record; a due flow's completion dirties its path, and the
// component was connected, so the next allocate's BFS reaches them all and
// files them again. The forgiven residual is rate × slack, a clock-relative
// quantity; see clockSlack for why no size- or rate-proportional term
// appears. The finished flows go to the free list only after the whole
// batch has been delivered, because a callback may Submit, and a flow
// handed out again while a later callback of the same batch still reads it
// would be corrupted.
func (e *Engine) completeFinished() {
	if len(e.cheap) == 0 {
		return
	}
	due := e.now + clockSlack(e.now)
	if e.cheap[0].first.doneAt > due {
		return
	}
	finished := e.finScratch[:0]
	for len(e.cheap) > 0 && e.cheap[0].first.doneAt <= due {
		rec := e.cheap.remove(0)
		for f := rec.head; f != nil; {
			next := f.recNext
			f.rec, f.recNext = nil, nil
			if f.doneAt <= due {
				finished = append(finished, f)
			}
			f = next
		}
		e.freeRec(rec)
	}
	if len(finished) > 1 {
		slices.SortFunc(finished, cmpDone)
	}
	for _, f := range finished {
		e.settleFlow(f)
		f.remaining = 0
		f.rate = 0
		// O(1) removal from the unordered active set.
		last := len(e.active) - 1
		moved := e.active[last]
		e.active[f.actIdx] = moved
		moved.actIdx = f.actIdx
		e.active[last] = nil
		e.active = e.active[:last]
		for _, r := range f.path {
			r.dropFlow(f)
		}
		e.dirty = append(e.dirty, f.path...)
	}
	for _, f := range finished {
		e.stats.FlowsCompleted++
		if f.done != nil {
			f.done(e.now)
		}
	}
	for i, f := range finished {
		// Drop the callback and path so they can be collected.
		f.label, f.path, f.done = "", nil, nil
		e.free = append(e.free, f)
		finished[i] = nil
	}
	e.finScratch = finished[:0]
}

// doneLess orders flows by (doneAt, submission seq): a total order, since
// seq is unique, so the delivery order of a batch is unique too.
func doneLess(a, b *Flow) bool {
	if a.doneAt != b.doneAt {
		return a.doneAt < b.doneAt
	}
	return a.seq < b.seq
}

// cmpDone is doneLess as a three-way comparison, for slices.SortFunc.
func cmpDone(a, b *Flow) int {
	switch {
	case doneLess(a, b):
		return -1
	case doneLess(b, a):
		return 1
	}
	return 0
}

// dropFlow removes one occurrence of f from the resource's active-flow
// list (a path may cross the same resource more than once, so exactly one
// entry is removed per call). Order is not preserved: no allocator step
// depends on r.flows order (see waterfill).
func (r *Resource) dropFlow(f *Flow) {
	for i, g := range r.flows {
		if g == f {
			last := len(r.flows) - 1
			r.flows[i] = r.flows[last]
			r.flows[last] = nil
			r.flows = r.flows[:last]
			return
		}
	}
}

// fireTimers runs all timers scheduled at or before the current time. The
// tolerance is the clock-relative slack: same-instant timers computed via
// different roundings fire in the same step at any clock magnitude.
func (e *Engine) fireTimers() {
	if e.timers.Len() == 0 {
		return
	}
	slack := clockSlack(e.now)
	for e.timers.Len() > 0 && e.timers.peek().at <= e.now+slack {
		t := e.timers.pop()
		e.stats.TimersFired++
		t.fn(e.now)
	}
}

// --- completion heap of component records -----------------------------

// compRec is one connected component's entry in the completion heap: the
// flows the component held when it was last waterfilled, linked through
// Flow.recNext, keyed by the least (doneAt, seq) among them. Flows leave a
// record only when it is popped, so a record still in the heap has lost
// no flow since it was built: its flows are still connected, and a dirty
// BFS that reaches one of them reaches all of them.
type compRec struct {
	head  *Flow
	first *Flow    // the key: the record's least flow under doneLess
	idx   int      // position in Engine.cheap, -1 when not enqueued
	next  *compRec // next record on Engine.recFree
}

// recHeap is a binary min-heap of records ordered by their first flows.
// doneLess is a total order and records are disjoint, so the pop sequence
// does not depend on the array layout.
type recHeap []*compRec

func (h *recHeap) push(r *compRec) {
	r.idx = len(*h)
	*h = append(*h, r)
	h.up(r.idx)
}

// remove takes the record in slot i out of the heap and returns it.
func (h *recHeap) remove(i int) *compRec {
	r := (*h)[i]
	n := len(*h) - 1
	if i != n {
		(*h)[i] = (*h)[n]
		(*h)[i].idx = i
	}
	(*h)[n] = nil
	*h = (*h)[:n]
	if i < n {
		h.fix(i)
	}
	r.idx = -1
	return r
}

// fix restores the heap order after the key in slot i changed.
func (h recHeap) fix(i int) {
	if !h.up(i) {
		h.down(i)
	}
}

func (h recHeap) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !doneLess(h[i].first, h[parent].first) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		h[i].idx = i
		h[parent].idx = parent
		i = parent
		moved = true
	}
	return moved
}

func (h recHeap) down(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && doneLess(h[l].first, h[smallest].first) {
			smallest = l
		}
		if r < n && doneLess(h[r].first, h[smallest].first) {
			smallest = r
		}
		if smallest == i {
			break
		}
		h[i], h[smallest] = h[smallest], h[i]
		h[i].idx = i
		h[smallest].idx = smallest
		i = smallest
	}
}

// timer is a scheduled callback.
type timer struct {
	at  float64
	seq int
	fn  func(now float64)
}

// timerHeap is a binary min-heap of timers ordered by (at, seq).
type timerHeap []timer

func (h timerHeap) Len() int { return len(h) }

func (h timerHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *timerHeap) push(t timer) {
	*h = append(*h, t)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h timerHeap) peek() timer { return h[0] }

func (h *timerHeap) pop() timer {
	top := (*h)[0]
	n := len(*h) - 1
	(*h)[0] = (*h)[n]
	*h = (*h)[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && h.less(l, smallest) {
			smallest = l
		}
		if r < n && h.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		(*h)[i], (*h)[smallest] = (*h)[smallest], (*h)[i]
		i = smallest
	}
	return top
}

// Series accumulates a rate signal into fixed-width time bins, yielding a
// time series such as "MB/s on the PS NIC over the course of training".
type Series struct {
	binWidth float64
	bins     []float64 // integrated service units per bin
}

// NewSeries returns a series with the given bin width in seconds.
func NewSeries(binWidth float64) *Series {
	if binWidth <= 0 {
		panic("flow: series bin width must be positive")
	}
	return &Series{binWidth: binWidth}
}

// Accumulate integrates a constant rate over [t0, t1) into the bins.
func (s *Series) Accumulate(t0, t1, rate float64) {
	if t1 <= t0 || rate <= 0 {
		return
	}
	first := int(t0 / s.binWidth)
	last := int(t1 / s.binWidth)
	if float64(last)*s.binWidth >= t1 {
		last-- // t1 on a bin boundary: the final bin would be empty
	}
	for len(s.bins) <= last {
		s.bins = append(s.bins, 0)
	}
	for b := first; b <= last; b++ {
		lo := math.Max(t0, float64(b)*s.binWidth)
		hi := math.Min(t1, float64(b+1)*s.binWidth)
		if hi > lo {
			s.bins[b] += rate * (hi - lo)
		}
	}
}

// Rates returns the mean rate of every bin.
func (s *Series) Rates() []float64 {
	out := make([]float64, len(s.bins))
	for i := range s.bins {
		out[i] = s.bins[i] / s.binWidth
	}
	return out
}

// Peak returns the maximum bin rate.
func (s *Series) Peak() float64 {
	peak := 0.0
	for _, b := range s.bins {
		if r := b / s.binWidth; r > peak {
			peak = r
		}
	}
	return peak
}

// MeanRate returns the average rate over bins [from, to).
func (s *Series) MeanRate(from, to int) float64 {
	if from < 0 {
		from = 0
	}
	if to > len(s.bins) {
		to = len(s.bins)
	}
	if to <= from {
		return 0
	}
	sum := 0.0
	for _, b := range s.bins[from:to] {
		sum += b
	}
	return sum / (float64(to-from) * s.binWidth)
}

// SteadyRate returns the mean rate over the middle portion of the series,
// discarding the given warmup and cooldown fractions (each in [0, 0.5)).
// It is useful for reading a saturation plateau off a throughput trace.
func (s *Series) SteadyRate(warmup, cooldown float64) float64 {
	n := len(s.bins)
	if n == 0 {
		return 0
	}
	from := int(float64(n) * warmup)
	to := n - int(float64(n)*cooldown)
	return s.MeanRate(from, to)
}

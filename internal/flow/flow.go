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
// predicted completion times (re-keyed only for flows whose component was
// re-waterfilled), flow progress and per-resource busyIntegral are settled
// only when a component is re-waterfilled (plus once at Run exit), so a
// step that touches one component costs O(affected), not O(cluster).
// There is one allocator and no way to select another: the pre-incremental
// full recompute survives only in the package's tests, as the oracle the
// incremental allocator is checked against bit for bit.
package flow

import (
	"fmt"
	"math"
	"sort"
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
	comp      int32   // component id within the current allocation epoch
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

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the resource capacity in service units per second.
func (r *Resource) Capacity() float64 { return r.capacity }

// BusyIntegral returns the total service delivered so far, in service
// units, including the not-yet-settled interval since the last rate
// change. Dividing by (capacity × elapsed time) yields mean utilization.
func (r *Resource) BusyIntegral() float64 {
	bi := r.busyIntegral
	if r.owner != nil && r.lastRate > 0 {
		if dt := r.owner.now - r.settledAt; dt > 0 {
			bi += r.lastRate * dt
		}
	}
	return bi
}

// utilClampTolerance separates genuine accounting drift from the ulp-level
// float noise of summing many per-step busy intervals: ratios within it of
// 1 clamp silently as before, anything above is counted as a clamp event.
const utilClampTolerance = 1e-9

var (
	utilClamps   atomic.Int64
	clampOnce    sync.Once
	clampCounter *obs.Counter
)

// noteUtilizationClamp records one masked accounting-drift event, both in
// the package counter (UtilizationClamps) and in the default obs registry.
func noteUtilizationClamp() {
	utilClamps.Add(1)
	clampOnce.Do(func() {
		clampCounter = obs.Default().Counter("cynthia_flow_util_clamp_total",
			"Resource.Utilization ratios above 1 that were clamped (accounting drift)")
	})
	clampCounter.Inc()
}

// UtilizationClamps returns the process-wide count of Utilization calls
// whose busy/capacity ratio exceeded 1 by more than the float-noise
// tolerance and was clamped. Such clamps mask accounting drift in the
// engine; the golden corpus asserts the count stays zero.
func UtilizationClamps() int64 { return utilClamps.Load() }

// Utilization returns the mean utilization of the resource over [0, now],
// in [0, 1]. It returns 0 if now is not positive. The not-yet-settled
// accrual interval is included, so the reading is exact at any observation
// point, not just after a rate change. Ratios above 1 indicate accounting
// drift: they are still clamped (preserving the historical return value),
// but recorded via UtilizationClamps and the cynthia_flow_util_clamp_total
// counter instead of being silently masked.
func (r *Resource) Utilization(now float64) float64 {
	if now <= 0 {
		return 0
	}
	bi := r.busyIntegral
	if r.lastRate > 0 {
		if dt := now - r.settledAt; dt > 0 {
			bi += r.lastRate * dt
		}
	}
	u := bi / (r.capacity * now)
	if u > 1+utilClampTolerance {
		noteUtilizationClamp()
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
	started   float64
	engine    *Engine
	seq       int64   // submission sequence: scan order and completion ties
	settled   float64 // sim time remaining was last settled at
	doneAt    float64 // predicted completion instant under the current rate
	heapIdx   int     // position in Engine.cheap, -1 when not enqueued
	actIdx    int     // position in Engine.active for O(1) removal
	visit     int64   // allocation-epoch stamp: in the current affected set
	comp      int32   // component id within the current allocation epoch
}

// Label returns the diagnostic label given at submission.
func (f *Flow) Label() string { return f.label }

// Remaining returns the work left, in service units, including progress
// accrued since the flow's component was last settled.
func (f *Flow) Remaining() float64 {
	rem := f.remaining
	if f.engine != nil && f.rate > 0 {
		if dt := f.engine.now - f.settled; dt > 0 {
			rem -= f.rate * dt
			if rem < 0 {
				rem = 0
			}
		}
	}
	return rem
}

// Rate returns the most recently allocated rate.
func (f *Flow) Rate() float64 { return f.rate }

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

	// cheap is the completion-time min-heap ordered by (doneAt, seq). Every
	// active flow is in it; stalled flows carry doneAt = +Inf. Keys are
	// re-computed only for flows whose component was re-waterfilled.
	cheap []*Flow

	// Incremental-allocator state: dirty seeds the next recompute with the
	// resources whose flow membership changed; queue/affected/comps and the
	// waterfill scratch buffers are reused across events so the
	// steady-state event loop allocates nothing.
	allocEpoch int64
	dirty      []*Resource
	queue      []*Resource // affected resources, contiguous per component
	affected   []*Flow     // affected flows, contiguous per component
	comps      []compSpan
	spanSort   spanSorter
	wfScratch  []*Flow // waterfill's unfrozen worklist
	finScratch []*Flow
	allocSizes [len(allocSizeBounds) + 1]int64 // affected flows per recompute

	observer func(f *Flow, start, end float64)
	stats    EngineStats
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
	// size, versus ActiveFlows for the full-recompute cost it replaced.
	AllocAffectedFlows int64
}

// Stats returns the engine's cumulative event counts.
func (e *Engine) Stats() EngineStats { return e.stats }

// SetFlowObserver installs a callback invoked at every flow completion
// with the flow and its [start, end] interval in simulated seconds —
// the hook the simulator uses to build structured trace timelines.
// Zero-size flows (which complete during Submit) are reported too.
func (e *Engine) SetFlowObserver(fn func(f *Flow, start, end float64)) {
	e.observer = fn
}

// newEngineAllocStep seeds Engine.allocStep for every engine NewEngine
// builds, so tests can switch the allocator of engines that other packages
// (ddnnsim) construct internally. Only this package's tests set it.
var newEngineAllocStep func(*Engine)

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine { return &Engine{allocStep: newEngineAllocStep} }

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// ActiveFlows returns the number of currently active flows.
func (e *Engine) ActiveFlows() int { return len(e.active) }

// Submit adds a flow of the given size over path, invoking done (if
// non-nil) at the simulated instant the flow completes. A flow of size <= 0
// completes immediately (done runs during the current event, before the
// engine advances). Submit may be called from done callbacks.
func (e *Engine) Submit(label string, size float64, path []*Resource, done func(now float64)) *Flow {
	if math.IsNaN(size) || math.IsInf(size, 0) {
		panic(fmt.Sprintf("flow: flow %q size %v out of range", label, size))
	}
	if len(path) == 0 {
		panic(fmt.Sprintf("flow: flow %q has empty path", label))
	}
	f := &Flow{label: label, size: size, remaining: size, path: path, done: done, started: e.now, engine: e, settled: e.now, heapIdx: -1}
	if size <= 0 {
		e.stats.FlowsCompleted++
		if e.observer != nil {
			e.observer(f, e.now, e.now)
		}
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
	e.dirty = append(e.dirty, path...)
	// Until its component is waterfilled the flow has no rate; it enters
	// the completion heap stalled and is re-keyed by the next allocate.
	f.doneAt = math.Inf(1)
	e.heapPush(f)
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

// After schedules fn to run d seconds from the current simulated time.
func (e *Engine) After(d float64, fn func(now float64)) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

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
// through the final time before returning, so BusyIntegral/Utilization and
// attached Series are exact at the returned instant.
func (e *Engine) Run(horizon float64) float64 {
	e.stopped = false
	for !e.stopped {
		if len(e.active) == 0 && e.timers.Len() == 0 {
			break
		}
		e.stats.Steps++
		e.allocate()
		// Earliest event: completion-heap top vs timer-heap top. Every
		// active flow is in the heap (stalled ones at +Inf), so this is
		// O(1) instead of a scan over the active set.
		next := math.Inf(1)
		if len(e.cheap) > 0 {
			next = e.cheap[0].doneAt
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

// completeFinished pops every flow whose predicted completion falls within
// the clock slack of the current time and runs their completion callbacks
// in deterministic (doneAt, submission) order — exactly the heap's key
// order. The forgiven residual is rate × slack, a clock-relative quantity;
// see clockSlack for why no size- or rate-proportional term appears.
func (e *Engine) completeFinished() {
	if len(e.cheap) == 0 {
		return
	}
	slack := clockSlack(e.now)
	if e.cheap[0].doneAt > e.now+slack {
		return
	}
	finished := e.finScratch[:0]
	for len(e.cheap) > 0 && e.cheap[0].doneAt <= e.now+slack {
		f := e.heapPop()
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
		finished = append(finished, f)
	}
	for _, f := range finished {
		e.stats.FlowsCompleted++
		if e.observer != nil {
			e.observer(f, f.started, e.now)
		}
		if f.done != nil {
			f.done(e.now)
		}
	}
	for i := range finished {
		finished[i] = nil // release for GC; the scratch buffer is reused
	}
	e.finScratch = finished[:0]
}

// dropFlow removes one occurrence of f from the resource's active-flow
// list (a path may cross the same resource more than once, so exactly one
// entry is removed per call). Order is not preserved: the allocator sorts
// each affected component by submission sequence before scanning, never
// relying on r.flows order.
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

// --- completion-time min-heap -----------------------------------------

// cheapLess orders the completion heap by (doneAt, submission seq). The
// keys are a total order, so although the heap's array layout depends on
// re-key order, the pop sequence — the only thing the event loop observes
// — is the unique sorted order.
func cheapLess(a, b *Flow) bool {
	if a.doneAt != b.doneAt {
		return a.doneAt < b.doneAt
	}
	return a.seq < b.seq
}

func (e *Engine) heapPush(f *Flow) {
	f.heapIdx = len(e.cheap)
	e.cheap = append(e.cheap, f)
	e.heapUp(f.heapIdx)
}

func (e *Engine) heapPop() *Flow {
	top := e.cheap[0]
	n := len(e.cheap) - 1
	e.cheap[0] = e.cheap[n]
	e.cheap[0].heapIdx = 0
	e.cheap[n] = nil
	e.cheap = e.cheap[:n]
	if n > 0 {
		e.heapDown(0)
	}
	top.heapIdx = -1
	return top
}

// heapFix restores the heap invariant after f.doneAt changed in place.
func (e *Engine) heapFix(f *Flow) {
	i := f.heapIdx
	if i < 0 {
		return
	}
	if !e.heapUp(i) {
		e.heapDown(i)
	}
}

func (e *Engine) heapUp(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !cheapLess(e.cheap[i], e.cheap[parent]) {
			break
		}
		e.cheap[i], e.cheap[parent] = e.cheap[parent], e.cheap[i]
		e.cheap[i].heapIdx = i
		e.cheap[parent].heapIdx = parent
		i = parent
		moved = true
	}
	return moved
}

func (e *Engine) heapDown(i int) {
	n := len(e.cheap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && cheapLess(e.cheap[l], e.cheap[smallest]) {
			smallest = l
		}
		if r < n && cheapLess(e.cheap[r], e.cheap[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		e.cheap[i], e.cheap[smallest] = e.cheap[smallest], e.cheap[i]
		e.cheap[i].heapIdx = i
		e.cheap[smallest].heapIdx = smallest
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

// BinWidth returns the bin width in seconds.
func (s *Series) BinWidth() float64 { return s.binWidth }

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

// Len returns the number of bins.
func (s *Series) Len() int { return len(s.bins) }

// Rate returns the mean rate in bin i (service units per second).
func (s *Series) Rate(i int) float64 {
	if i < 0 || i >= len(s.bins) {
		return 0
	}
	return s.bins[i] / s.binWidth
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

// Sorted returns a copy of per-bin rates sorted ascending; handy for
// percentile readings in tests.
func (s *Series) Sorted() []float64 {
	out := s.Rates()
	sort.Float64s(out)
	return out
}

// ExportUtilization publishes each resource's mean utilization over
// [0, now] as a labeled gauge in the registry — the measured counterpart
// of the paper's Eq. 6-7 demand/capacity ratios. The label value is the
// resource name (e.g. "ps0.nic").
func ExportUtilization(reg *obs.Registry, metric, help string, now float64, resources ...*Resource) {
	if reg == nil || len(resources) == 0 {
		return
	}
	gv := reg.GaugeVec(metric, help, "resource")
	for _, r := range resources {
		gv.With(r.Name()).Set(r.Utilization(now))
	}
}

// ExportEngine publishes the engine's event-loop counters as gauges under
// the given metric prefix (<prefix>_flows_total etc.).
func ExportEngine(reg *obs.Registry, prefix string, e *Engine) {
	if reg == nil || e == nil {
		return
	}
	st := e.Stats()
	reg.Gauge(prefix+"_flows_total", "flows completed by the simulation engine").Set(float64(st.FlowsCompleted))
	reg.Gauge(prefix+"_timers_total", "timers fired by the simulation engine").Set(float64(st.TimersFired))
	reg.Gauge(prefix+"_steps_total", "event steps taken by the engine").Set(float64(st.Steps))
	reg.Gauge(prefix+"_alloc_recomputes_total", "allocator runs that re-waterfilled an affected component").Set(float64(st.AllocRecomputes))
	reg.Gauge(prefix+"_alloc_skipped_total", "event steps that reused the previous allocation unchanged").Set(float64(st.AllocSkipped))
	reg.Gauge(prefix+"_alloc_affected_flows_total", "flows re-waterfilled across all allocator recomputes").Set(float64(st.AllocAffectedFlows))
	h := reg.Histogram(prefix+"_alloc_affected_flows", "affected flows per allocator recompute", allocSizeBuckets[:len(allocSizeBounds)])
	for i, n := range e.allocSizes {
		if n > 0 {
			h.ObserveN(allocSizeBuckets[i], n)
		}
	}
}

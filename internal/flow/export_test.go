package flow

// Test-only exports: the allocator seams for the external flow_test
// package, which runs whole ddnnsim simulations and so cannot live inside
// package flow, and accessors that only tests read.

// ReferenceStep and VerifyStep are the allocation steps the differential
// tests run in place of the incremental allocator: the full-recompute
// oracle, and the incremental step cross-checked against that oracle after
// every recompute.
var (
	ReferenceStep = (*Engine).allocReferenceStep
	VerifyStep    = (*Engine).allocVerifyStep
)

// UseAllocStepInNewEngines makes every engine NewEngine builds from now on
// run step instead of the incremental allocator (nil restores it), and
// returns a func that reinstates the previous setting. Not safe for
// concurrent use: call it only while no engine is being built.
func UseAllocStepInNewEngines(step func(*Engine)) (restore func()) {
	prev := newEngineAllocStep
	newEngineAllocStep = step
	return func() { newEngineAllocStep = prev }
}

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

// UtilizationClamps returns the process-wide count of clamped Utilization
// ratios; see clampCounter.
func UtilizationClamps() int64 { return clampCounter().Value() }

// Remaining returns the work left, in service units, including progress
// accrued since the flow's component was last settled. A flow with a rate
// is active, so its path's first resource is registered with its engine.
func (f *Flow) Remaining() float64 {
	rem := f.remaining
	if f.rate > 0 {
		if dt := f.path[0].owner.now - f.settled; dt > 0 {
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

// After schedules fn to run d seconds from the current simulated time.
func (e *Engine) After(d float64, fn func(now float64)) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
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

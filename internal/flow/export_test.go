package flow

// Test-only exports for the external flow_test package, which runs whole
// ddnnsim simulations and so cannot live inside package flow.

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

package flow

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// fuzzCaps are the capacities a fuzzed resource draws from: small values
// that tie exactly, the ring and sparse benchmark capacity, a second NIC
// capacity, and the near-tie pair of the crafted cross-component case.
var fuzzCaps = [8]float64{1, 2, 4, 10, 100, 120, 1 + 1.8e-15, 2 + 1.8e-15}

// fuzzSizes are the flow sizes a fuzzed submit draws from, from a zero-size
// flow (completes inside Submit) through a trigger-sized one to a flow
// that outlives every horizon.
var fuzzSizes = [8]float64{0, 1e-6, 0.5, 1, 3, 10, 40, 1e6}

// Fuzz op kinds. An op byte packs the kind in bits 0-1, the path length
// minus one (mod 3) in bits 2-3 and the fuzzSizes index in bits 4-6.
const (
	opSubmit  = iota // submit now
	opChain          // submit now; its completion submits once more on the same path
	opTimer          // arg byte: submit at arg/8 seconds
	opHorizon        // arg byte: Run until now + 1 + arg/8, then keep scheduling
)

// maxFuzzOps bounds a decoded schedule, so one fuzz case stays fast.
const maxFuzzOps = 96

type fuzzOp struct {
	kind int
	size float64
	arg  float64
	path []int // indices into the topology's resources
}

// decodeFuzz turns fuzz bytes into a topology and a schedule: byte 0 picks
// 1-8 resources, one byte each picks its capacity, then ops follow until
// the bytes run out. Paths repeat resources freely.
func decodeFuzz(data []byte) (caps []float64, ops []fuzzOp) {
	if len(data) == 0 {
		return nil, nil
	}
	n := 1 + int(data[0]%8)
	data = data[1:]
	for i := 0; i < n && len(data) > 0; i++ {
		caps = append(caps, fuzzCaps[data[0]%8])
		data = data[1:]
	}
	for len(data) > 0 && len(ops) < maxFuzzOps && len(caps) > 0 {
		b := data[0]
		data = data[1:]
		op := fuzzOp{kind: int(b & 3), size: fuzzSizes[(b>>4)&7]}
		if op.kind == opTimer || op.kind == opHorizon {
			if len(data) == 0 {
				break
			}
			op.arg = float64(data[0]) / 8
			data = data[1:]
		}
		if op.kind != opHorizon {
			for k := 1 + int((b>>2)&3)%3; k > 0 && len(data) > 0; k-- {
				op.path = append(op.path, int(data[0])%len(caps))
				data = data[1:]
			}
			if len(op.path) == 0 {
				break
			}
		}
		ops = append(ops, op)
	}
	return caps, ops
}

// fuzzOutcome is everything a fuzz run lets the two allocators disagree
// on: each completion as (flow id, time bits) in delivery order, the
// engine's completion count, and the deadlock panic if the run hit one.
type fuzzOutcome struct {
	completions []string
	completed   int64
	deadlock    string
}

// runFuzz plays the schedule on a fresh engine under step. It recovers
// only the documented deadlock panic; any other panic — a verify-step
// mismatch included — propagates and fails the fuzz case.
func runFuzz(step func(*Engine), caps []float64, ops []fuzzOp) (out fuzzOutcome) {
	e := NewEngine()
	e.allocStep = step
	res := make([]*Resource, len(caps))
	for i, c := range caps {
		res[i] = NewResource(fmt.Sprint("r", i), c)
	}
	defer func() {
		out.completed = e.Stats().FlowsCompleted
		if r := recover(); r != nil {
			msg := fmt.Sprint(r)
			if !strings.HasPrefix(msg, "flow: deadlock") {
				panic(r)
			}
			out.deadlock = msg
		}
	}()
	record := func(id int) func(float64) {
		return func(now float64) {
			out.completions = append(out.completions, fmt.Sprintf("%d@%x", id, math.Float64bits(now)))
		}
	}
	for id, op := range ops {
		var path []*Resource
		for _, i := range op.path {
			path = append(path, res[i])
		}
		switch op.kind {
		case opSubmit:
			e.Submit("s", op.size, path, record(id))
		case opChain:
			size := op.size
			e.Submit("c", size, path, func(now float64) {
				record(id)(now)
				e.Submit("c2", size/2, path, record(-1-id)) // negative ids: resubmissions
			})
		case opTimer:
			size := op.size
			e.At(op.arg, func(float64) { e.Submit("t", size, path, record(id)) })
		case opHorizon:
			e.Run(e.Now() + 1 + op.arg)
		}
	}
	e.Run(0)
	return out
}

// FuzzAllocatorDifferential runs a decoded topology and schedule once
// under the verify step (the incremental allocator, its rates and heap
// cross-checked after every recompute) and once under the full-recompute
// reference, and requires bit-identical completion sequences and counts.
func FuzzAllocatorDifferential(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		caps, ops := decodeFuzz(data)
		if len(ops) == 0 {
			t.Skip()
		}
		ref := runFuzz((*Engine).allocReferenceStep, caps, ops)
		got := runFuzz((*Engine).allocVerifyStep, caps, ops)
		if got.deadlock != ref.deadlock {
			t.Fatalf("deadlock: verify %q, reference %q", got.deadlock, ref.deadlock)
		}
		if got.completed != ref.completed {
			t.Fatalf("FlowsCompleted: verify %d, reference %d", got.completed, ref.completed)
		}
		if len(got.completions) != len(ref.completions) {
			t.Fatalf("%d completions delivered, reference %d", len(got.completions), len(ref.completions))
		}
		for i := range ref.completions {
			if got.completions[i] != ref.completions[i] {
				t.Fatalf("completion %d: verify %s, reference %s", i, got.completions[i], ref.completions[i])
			}
		}
	})
}

// fuzzInput builds seed inputs in decodeFuzz's encoding.
type fuzzInput []byte

func newFuzzInput(caps ...byte) fuzzInput {
	return append(fuzzInput{byte(len(caps) - 1)}, caps...)
}

// op appends one op: kind and fuzzSizes index, then the arg byte for
// timers and horizons, then the path.
func (in fuzzInput) op(kind, size int, arg byte, path ...byte) fuzzInput {
	in = append(in, byte(kind|(len(path)-1)<<2|size<<4))
	if kind == opTimer || kind == opHorizon {
		in = append(in, arg)
	}
	return append(in, path...)
}

func (in fuzzInput) horizon(arg byte) fuzzInput {
	return append(in, opHorizon, arg)
}

// fuzzSeeds are the corpus the fuzzer starts from: the ring and sparse
// benchmark topologies cut to 8 resources, the crafted cross-component
// tie-break case of TestCrossComponentTieBreakPartitionIndependent, and a
// batch of coincident completions across components.
func fuzzSeeds() [][]byte {
	const long, mid, trigger = 7, 5, 1
	ring := newFuzzInput(4, 4, 4, 4, 4, 4, 4, 4)
	for i := 0; i < 40; i++ {
		ring = ring.op(opSubmit, long-i%3, 0, byte(i%8), byte((i+1)%8))
	}
	ring = ring.horizon(40).op(opChain, mid, 0, 3, 4)

	sparse := newFuzzInput(4, 4, 4, 4, 4, 5, 5, 5)
	for i := 0; i < 32; i++ {
		g := byte(i % 4)
		sparse = sparse.op(opSubmit, mid+i%2, 0, 2*g, 2*g+1)
	}
	sparse = sparse.op(opTimer, 4, 12, 0, 1).horizon(3).op(opChain, 3, 0, 6, 7, 6)

	tie := newFuzzInput(6, 7, 1).
		op(opSubmit, long, 0, 0).
		op(opSubmit, trigger, 0, 1).
		op(opSubmit, long, 0, 1).
		op(opSubmit, long, 0, 1, 2).
		op(opSubmit, long, 0, 2).
		horizon(0).
		op(opSubmit, 2, 0, 0, 2)
	// Six flows in five components complete at exactly t = 1, one of them
	// submitted by a timer at 0.5, so one batch pops several records and
	// only the submission order breaks the ties; the chained flow
	// resubmits into a component whose record was just popped.
	coincide := newFuzzInput(0, 0, 1, 3, 0).
		op(opSubmit, 3, 0, 0).
		op(opSubmit, 3, 0, 2).
		op(opChain, 3, 0, 1).
		op(opSubmit, 5, 0, 3).
		op(opSubmit, 3, 0, 2).
		op(opTimer, 2, 4, 4)
	return [][]byte{ring, sparse, tie, coincide}
}

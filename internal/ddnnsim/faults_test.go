package ddnnsim

import (
	"testing"

	"cynthia/internal/cloud"
)

func TestFaultInterruptsRun(t *testing.T) {
	w := mustWorkload(t, "mnist DNN")
	full := run(t, w, cloud.Homogeneous(m4, 2, 1), Options{Iterations: 100})
	at := full.TrainingTime / 2

	res := run(t, w, cloud.Homogeneous(m4, 2, 1), Options{
		Iterations:      100,
		CheckpointEvery: 10,
		Faults:          []Fault{{AtSec: at, Role: "worker", Index: 1}},
	})
	if !res.Interrupted {
		t.Fatalf("fault at %.1fs (of %.1fs run) did not interrupt", at, full.TrainingTime)
	}
	if res.Fault == nil || res.Fault.Role != "worker" || res.Fault.Index != 1 {
		t.Errorf("Fault = %+v, want worker[1]", res.Fault)
	}
	if res.TrainingTime != at {
		t.Errorf("TrainingTime = %v, want fault instant %v", res.TrainingTime, at)
	}
	if res.Iterations <= 0 || res.Iterations >= 100 {
		t.Errorf("Iterations = %d, want partial progress in (0,100)", res.Iterations)
	}
	if res.CheckpointIter != res.Iterations-res.Iterations%10 {
		t.Errorf("CheckpointIter = %d with %d completed", res.CheckpointIter, res.Iterations)
	}
	if res.LostIterations != res.Iterations-res.CheckpointIter {
		t.Errorf("LostIterations = %d, want %d", res.LostIterations, res.Iterations-res.CheckpointIter)
	}
}

func TestFaultWithoutCheckpointingLosesAllProgress(t *testing.T) {
	w := mustWorkload(t, "mnist DNN")
	res := run(t, w, cloud.Homogeneous(m4, 2, 1), Options{
		Iterations: 100,
		Faults:     []Fault{{AtSec: 5, Role: "ps", Index: 0}},
	})
	if !res.Interrupted {
		t.Fatal("not interrupted")
	}
	if res.CheckpointIter != 0 || res.LostIterations != res.Iterations {
		t.Errorf("CheckpointIter=%d LostIterations=%d with %d completed; want 0 / all",
			res.CheckpointIter, res.LostIterations, res.Iterations)
	}
}

func TestEarliestFaultWins(t *testing.T) {
	w := mustWorkload(t, "mnist DNN")
	res := run(t, w, cloud.Homogeneous(m4, 2, 1), Options{
		Iterations: 100,
		Faults: []Fault{
			{AtSec: 50, Role: "worker", Index: 0},
			{AtSec: 3, Role: "ps", Index: 0},
		},
	})
	if !res.Interrupted || res.Fault.Role != "ps" || res.TrainingTime != 3 {
		t.Errorf("got fault %+v at %v, want ps[0] at 3", res.Fault, res.TrainingTime)
	}
}

func TestFaultAtZeroIsClamped(t *testing.T) {
	w := mustWorkload(t, "mnist DNN")
	// The flow engine treats horizon <= 0 as unbounded; a fault at t=0
	// must still halt the run immediately rather than disable the stop.
	res := run(t, w, cloud.Homogeneous(m4, 1, 1), Options{
		Iterations: 10,
		Faults:     []Fault{{AtSec: 0, Role: "worker", Index: 0}},
	})
	if !res.Interrupted || res.Iterations != 0 {
		t.Errorf("interrupted=%v iterations=%d, want immediate interruption", res.Interrupted, res.Iterations)
	}
}

func TestFaultAfterCompletionIsIgnored(t *testing.T) {
	w := mustWorkload(t, "mnist DNN")
	full := run(t, w, cloud.Homogeneous(m4, 1, 1), Options{Iterations: 20})
	res := run(t, w, cloud.Homogeneous(m4, 1, 1), Options{
		Iterations: 20,
		Faults:     []Fault{{AtSec: full.TrainingTime * 10, Role: "worker", Index: 0}},
	})
	if res.Interrupted || res.Iterations != 20 {
		t.Errorf("interrupted=%v iterations=%d, want clean completion", res.Interrupted, res.Iterations)
	}
}

func TestStartIterationOffsetsLossCurve(t *testing.T) {
	w := mustWorkload(t, "mnist DNN")
	base := run(t, w, cloud.Homogeneous(m4, 2, 1), Options{Iterations: 10})
	resumed := run(t, w, cloud.Homogeneous(m4, 2, 1), Options{Iterations: 10, StartIteration: 500})
	if len(resumed.Loss) != len(base.Loss) {
		t.Fatalf("loss lengths differ: %d vs %d", len(resumed.Loss), len(base.Loss))
	}
	first, last := resumed.Loss[0], resumed.Loss[len(resumed.Loss)-1]
	if first.Iter != 501 || last.Iter != 510 {
		t.Errorf("loss iters span [%d,%d], want [501,510]", first.Iter, last.Iter)
	}
	// Later in training means lower loss on the paper's decay curves.
	if resumed.FinalLoss >= base.FinalLoss {
		t.Errorf("resumed final loss %v not below fresh-start %v", resumed.FinalLoss, base.FinalLoss)
	}
}

func TestInterruptedRunIsDeterministic(t *testing.T) {
	w := mustWorkload(t, "mnist DNN")
	opt := Options{
		Iterations:      100,
		Seed:            5,
		CheckpointEvery: 7,
		Faults:          []Fault{{AtSec: 10, Role: "worker", Index: 0}},
	}
	a := run(t, w, cloud.Homogeneous(m4, 3, 1), opt)
	b := run(t, w, cloud.Homogeneous(m4, 3, 1), opt)
	if a.Iterations != b.Iterations || a.CheckpointIter != b.CheckpointIter ||
		a.TrainingTime != b.TrainingTime || a.FinalLoss != b.FinalLoss {
		t.Errorf("runs differ: %+v vs %+v", a, b)
	}
}

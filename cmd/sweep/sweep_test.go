package main

import (
	"errors"
	"strings"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/model"
)

func fixtures(t *testing.T) (*model.Workload, cloud.InstanceType) {
	t.Helper()
	w, err := model.WorkloadByName("mnist DNN")
	if err != nil {
		t.Fatal(err)
	}
	m4, err := cloud.DefaultCatalog().Lookup(cloud.M4XLarge)
	if err != nil {
		t.Fatal(err)
	}
	return w, m4
}

func TestGridEnumeration(t *testing.T) {
	w, m4 := fixtures(t)
	m1, _ := cloud.DefaultCatalog().Lookup(cloud.M1XLarge)
	pts := grid([]*model.Workload{w}, []cloud.InstanceType{m4, m1}, []int{1, 2, 4}, []int{1, 2}, 50, 7)
	// PS > workers shapes are skipped: n=1 only allows ps=1.
	want := 2 * (1 + 2 + 2) // per type: (1,1) (2,1) (2,2) (4,1) (4,2)
	if len(pts) != want {
		t.Fatalf("grid = %d points, want %d", len(pts), want)
	}
	for _, p := range pts {
		if p.iterations != 50 || p.seed != 7 {
			t.Errorf("point config lost: %+v", p)
		}
		if !strings.Contains(p.label, w.Name) {
			t.Errorf("label %q", p.label)
		}
	}
}

func TestRunPreservesOrderAndCompletes(t *testing.T) {
	w, m4 := fixtures(t)
	pts := grid([]*model.Workload{w}, []cloud.InstanceType{m4}, []int{1, 2, 4, 8}, []int{1}, 60, 1)
	outcomes := simulate(pts, 4)
	if len(outcomes) != len(pts) {
		t.Fatalf("%d outcomes for %d points", len(outcomes), len(pts))
	}
	for i, oc := range outcomes {
		if oc.point.label != pts[i].label {
			t.Errorf("outcome %d out of order: %s vs %s", i, oc.point.label, pts[i].label)
		}
		if oc.err != nil {
			t.Errorf("%s failed: %v", oc.point.label, oc.err)
		}
		if oc.result == nil || oc.result.Iterations != 60 {
			t.Errorf("%s incomplete result", oc.point.label)
		}
	}
	// The U-shape is visible through the sweep: 2 workers beat 1.
	if outcomes[1].result.TrainingTime >= outcomes[0].result.TrainingTime {
		t.Errorf("2 workers (%v) should beat 1 (%v)",
			outcomes[1].result.TrainingTime, outcomes[0].result.TrainingTime)
	}
}

func TestRunContainsErrors(t *testing.T) {
	w, m4 := fixtures(t)
	pts := []point{
		{workload: nil, cluster: cloud.Homogeneous(m4, 1, 1), iterations: 10, label: "bad"},
		{workload: w, cluster: cloud.Homogeneous(m4, 1, 1), iterations: 10, label: "good"},
	}
	outcomes := simulate(pts, 2)
	if outcomes[0].err == nil {
		t.Error("nil workload did not error")
	}
	if outcomes[1].err != nil {
		t.Errorf("good point failed: %v", outcomes[1].err)
	}
}

func TestRunEmptyAndDefaults(t *testing.T) {
	if got := simulate(nil, 0); len(got) != 0 {
		t.Errorf("empty run = %d outcomes", len(got))
	}
	w, m4 := fixtures(t)
	pts := grid([]*model.Workload{w}, []cloud.InstanceType{m4}, []int{1}, []int{1}, 20, 1)
	outcomes := simulate(pts, 0) // default parallelism
	if len(outcomes) != 1 || outcomes[0].err != nil {
		t.Errorf("default-parallelism run failed: %+v", outcomes)
	}
}

func TestBest(t *testing.T) {
	w, m4 := fixtures(t)
	pts := grid([]*model.Workload{w}, []cloud.InstanceType{m4}, []int{1, 2, 4, 8}, []int{1}, 80, 1)
	b, err := best(simulate(pts, 0))
	if err != nil {
		t.Fatal(err)
	}
	// mnist's sweet spot at these scales is 4 workers.
	if b.point.cluster.NumWorkers() != 4 {
		t.Errorf("best = %s, want the 4-worker point", b.point.label)
	}
	if _, err := best(nil); err == nil {
		t.Error("best of nothing succeeded")
	}
	if _, err := best([]outcome{{err: errors.New("fake")}}); err == nil {
		t.Error("best over failures succeeded")
	}
}

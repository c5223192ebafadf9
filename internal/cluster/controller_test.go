package cluster

import (
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/model"
	"cynthia/internal/plan"
)

// TestControllerJobCostMatchesEq8 asserts the job's realized cost is the
// Eq. (8) docker-hours price of the plan that actually ran.
func TestControllerJobCostMatchesEq8(t *testing.T) {
	master := newMaster(t)
	provider := cloud.NewProvider(cloud.DefaultCatalog(), nil)
	ctl := NewController(master, provider, nil, "")
	w, err := model.WorkloadByName("mnist DNN")
	if err != nil {
		t.Fatal(err)
	}
	job, err := ctl.Submit(w, plan.Goal{TimeSec: 1800, LossTarget: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	want := plan.Cost(job.Plan.Type, job.Plan.Workers, job.Plan.PS, job.TrainingTime)
	if job.Cost != want {
		t.Errorf("job cost = %.6f, want Eq. 8 value %.6f", job.Cost, want)
	}
}

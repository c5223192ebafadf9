package cluster

import (
	"context"
	"sync/atomic"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/model"
	"cynthia/internal/plan"
)

// countingProvisioner wraps the Cynthia engine and counts the searches
// the controller runs.
type countingProvisioner struct {
	searches int32
}

func (c *countingProvisioner) Search(ctx context.Context, req plan.Request) (plan.Result, error) {
	atomic.AddInt32(&c.searches, 1)
	return plan.DefaultEngine.Search(ctx, req)
}

// TestControllerFallbackNeverReSearches pins the zero-re-search
// contract: even when the capacity fallback has to walk the ranked
// candidates onto another instance type, the controller runs exactly one
// search per submission.
func TestControllerFallbackNeverReSearches(t *testing.T) {
	master := newMaster(t)
	provider := cloud.NewProvider(cloud.DefaultCatalog(), nil)
	ctl := NewController(master, provider, nil, "")
	counter := &countingProvisioner{}
	ctl.UseProvisioner(counter)
	w, err := model.WorkloadByName("cifar10 DNN")
	if err != nil {
		t.Fatal(err)
	}

	first, err := ctl.Submit(w, plan.Goal{TimeSec: 7200, LossTarget: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&counter.searches); got != 1 {
		t.Fatalf("plain submit ran %d searches, want 1", got)
	}

	// Starve the chosen type so the second submission must fall back.
	provider.SetCapacityLimit(first.Plan.Type.Name, 1)
	second, err := ctl.Submit(w, plan.Goal{TimeSec: 7200, LossTarget: 0.8})
	if err != nil {
		t.Fatalf("fallback submit failed: %v", err)
	}
	if second.Plan.Type.Name == first.Plan.Type.Name {
		t.Fatalf("fallback reused the capped type %s", first.Plan.Type.Name)
	}
	if got := atomic.LoadInt32(&counter.searches); got != 2 {
		t.Errorf("two submissions ran %d searches, want 2 (one each)", got)
	}
}

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

package cluster

import (
	"context"
	"net/http"
	"sync/atomic"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/model"
	"cynthia/internal/obs"
	"cynthia/internal/plan"
	"cynthia/internal/plan/service"
)

// countingProvisioner wraps the Cynthia engine and counts the searches
// and candidate lists the controller asks for.
type countingProvisioner struct {
	searches   int32
	candidates int32
}

func (c *countingProvisioner) Search(ctx context.Context, req plan.Request) (plan.Result, error) {
	atomic.AddInt32(&c.searches, 1)
	return plan.DefaultEngine.Search(ctx, req)
}

func (c *countingProvisioner) Candidates(ctx context.Context, req plan.Request) ([]plan.Plan, error) {
	atomic.AddInt32(&c.candidates, 1)
	return plan.DefaultEngine.Candidates(ctx, req)
}

// TestControllerCandidatesOnlyOnFallback pins when a ranked candidate
// list is built: never for a plain submission or a quote, and exactly
// once when the capacity fallback needs alternatives — in which case the
// fallback launches the first candidate of the admission-time ranking
// that fits the provider's capacity.
func TestControllerCandidatesOnlyOnFallback(t *testing.T) {
	master := newMaster(t)
	provider := cloud.NewProvider(cloud.DefaultCatalog(), nil)
	ctl := NewController(master, provider, nil, "")
	counter := &countingProvisioner{}
	ctl.UseProvisioner(counter)
	count := func() (int32, int32) {
		return atomic.LoadInt32(&counter.searches), atomic.LoadInt32(&counter.candidates)
	}
	w, err := model.WorkloadByName("cifar10 DNN")
	if err != nil {
		t.Fatal(err)
	}
	goal := plan.Goal{TimeSec: 7200, LossTarget: 0.8}

	first, err := ctl.Submit(w, goal)
	if err != nil {
		t.Fatal(err)
	}
	if s, c := count(); s != 1 || c != 0 {
		t.Fatalf("plain submit ran %d searches and %d candidate lists, want 1 and 0", s, c)
	}

	// The list an admission-time ranking would have walked: the first
	// feasible candidate that is not the starved type's plan and fits
	// the starved type's one-instance (two-docker) cap.
	req, err := ctl.PlanRequest(w, goal, "")
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := plan.DefaultEngine.Candidates(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	starved := first.Plan.Type.Name
	var want plan.Plan
	for _, cand := range ranked {
		if cand.Feasible && (cand.Type.Name != starved || cand.Workers+cand.PS <= coresPerInstance) {
			want = cand
			break
		}
	}
	if !want.Feasible {
		t.Fatal("no feasible fallback candidate in the admission-time ranking")
	}

	provider.SetCapacityLimit(starved, 1)
	second, err := ctl.Submit(w, goal)
	if err != nil {
		t.Fatalf("fallback submit failed: %v", err)
	}
	if second.Plan != want {
		t.Errorf("fallback launched %v, the admission-time ranking picks %v", second.Plan, want)
	}
	if s, c := count(); s != 2 || c != 1 {
		t.Errorf("two submissions ran %d searches and %d candidate lists, want 2 and 1", s, c)
	}

	// Quotes answer with the plan alone.
	svc := service.New(service.Config{Provisioner: counter, Catalog: provider.Catalog(), Registry: obs.NewRegistry()})
	t.Cleanup(svc.Close)
	h := NewAPI(master, ctl, WithPlanService(svc)).Handler()
	for _, d := range []float64{3600, 5400, 9000} {
		if rec, _ := doJSON(t, h, "POST", "/api/plan", planBody(d)); rec.Code != http.StatusOK {
			t.Fatalf("quote %.0f: %d", d, rec.Code)
		}
	}
	if s, c := count(); s != 5 || c != 1 {
		t.Errorf("three quotes moved the counts to %d searches and %d candidate lists, want 5 and 1", s, c)
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

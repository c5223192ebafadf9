package cluster

// elastic_test.go proves the continuous optimizer at the controller
// layer: spot adoption at submit, bit-identical parity with the static
// controller on a flat trace, mid-run re-planning at a price drop, the
// on-demand fallback when the spot market refuses a replacement or an
// elastic rebuild, and the crash-durability sweep extended over the
// PhaseElastic barrier — a master killed between the elastic.replan
// decision and the scale action neither double-launches nor strands
// instances.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"sync/atomic"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/cloud/pricing"
	"cynthia/internal/model"
	"cynthia/internal/obs"
	"cynthia/internal/obs/journal"
	"cynthia/internal/plan"
	"cynthia/internal/plan/service"
)

// odMap extracts the on-demand price table the pricing generators key on.
func odMap(cat *cloud.Catalog) map[string]float64 {
	m := make(map[string]float64)
	for _, t := range cat.Types() {
		m[t.Name] = t.PricePerHour
	}
	return m
}

// dropSet prices every type at on-demand parity until dropAt, then at
// fraction·on-demand: the elastic controller should start exactly like
// the static one and re-home to spot at the drop.
func dropSet(t *testing.T, cat *cloud.Catalog, dropAt, fraction float64) *pricing.TraceSet {
	t.Helper()
	set := &pricing.TraceSet{Name: "drop"}
	for _, it := range cat.Types() { // catalog order is name-sorted, as Validate requires
		set.Traces = append(set.Traces, pricing.Trace{Type: it.Name, Points: []pricing.Point{
			{AtSec: 0, Price: it.PricePerHour},
			{AtSec: dropAt, Price: fraction * it.PricePerHour},
		}})
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	return set
}

// newElasticController is newFaultController plus an attached spot
// market, which turns the continuous optimizer on.
func newElasticController(t *testing.T, fp cloud.FaultPlan, set *pricing.TraceSet) (*Controller, *cloud.Provider) {
	t.Helper()
	ctl, provider := newFaultController(t, fp)
	m, err := cloud.NewMarket(provider.Catalog(), set)
	if err != nil {
		t.Fatal(err)
	}
	provider.SetMarket(m)
	return ctl, provider
}

// staticBaseline runs the fault-free static controller once and reports
// its outcome for cost comparisons.
func staticBaseline(t *testing.T) *Job {
	t.Helper()
	ctl, _ := newFaultController(t, cloud.FaultPlan{})
	job := mustSubmit(t, ctl, recoveryGoal)
	if job.Status != StatusSucceeded {
		t.Fatalf("static baseline status = %s (%s)", job.Status, job.Err)
	}
	return job
}

// TestElasticFlatDiscountAdoptsSpot: with every spot price flat at half
// the on-demand rate, the balanced strategy takes the whole cluster to
// the spot market at submit time and the job costs roughly half the
// static baseline.
func TestElasticFlatDiscountAdoptsSpot(t *testing.T) {
	base := staticBaseline(t)
	cat := cloud.DefaultCatalog()
	set, err := pricing.GenerateSet("discount", odMap(cat), pricing.GenSpec{Kind: "flat", Base: 0.5, Min: 0.5, Max: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	ctl, provider := newElasticController(t, cloud.FaultPlan{}, set)
	job := mustSubmit(t, ctl, recoveryGoal)
	if job.Status != StatusSucceeded {
		t.Fatalf("status = %s (%s)", job.Status, job.Err)
	}
	if job.Cost >= base.Cost*0.6 {
		t.Errorf("spot cost $%.3f not well under static $%.3f", job.Cost, base.Cost)
	}
	if job.ElasticScales != 0 {
		t.Errorf("flat trace produced %d elastic scales, want 0", job.ElasticScales)
	}
	var spot int
	for _, inst := range provider.List(map[string]string{"job": job.ID}) {
		if inst.Spot {
			spot++
		}
	}
	if spot == 0 {
		t.Error("no spot instances launched for a flat 50% discount")
	}
	// The provider's bill agrees with the controller's cost accounting
	// direction: spot billing must also be below the static baseline.
	if bill := provider.Bill(); bill >= base.Cost {
		t.Errorf("provider bill $%.3f not below static cost $%.3f", bill, base.Cost)
	}
}

// TestElasticFlatParityMatchesStatic is the unit-level half of the
// metamorphic relation in internal/simtest: on a spot trace flat at
// exactly the on-demand price, the elastic controller's final world is
// bit-identical to the static controller's.
func TestElasticFlatParityMatchesStatic(t *testing.T) {
	nInst, t0 := baselineShape(t)
	fp := lastInstancePlan(nInst, t0)

	ctlS, provS := newFaultController(t, fp)
	jobS := mustSubmit(t, ctlS, recoveryGoal)

	set, err := pricing.GenerateSet("parity", odMap(cloud.DefaultCatalog()), pricing.GenSpec{Kind: "flat", Base: 1, Min: 1, Max: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctlE, provE := newElasticController(t, fp, set)
	jobE := mustSubmit(t, ctlE, recoveryGoal)

	if jobS.Status != jobE.Status {
		t.Fatalf("status diverged: static %s, elastic %s", jobS.Status, jobE.Status)
	}
	if got, want := ctlE.ExportState(nil), ctlS.ExportState(nil); !reflect.DeepEqual(got, want) {
		t.Errorf("controller state diverged on flat parity trace\n got %+v\nwant %+v", got, want)
	}
	if got, want := provE.ExportState(nil), provS.ExportState(nil); !reflect.DeepEqual(got, want) {
		t.Errorf("provider state diverged on flat parity trace\n got %+v\nwant %+v", got, want)
	}
}

// TestElasticScalesMidRunOnPriceDrop: spot opens at parity (so the
// initial plan is the static one, on-demand), then every price drops to
// 40% mid-run. The optimizer must re-home the cluster to spot at the
// change-point and finish cheaper than the static baseline.
func TestElasticScalesMidRunOnPriceDrop(t *testing.T) {
	base := staticBaseline(t)
	set := dropSet(t, cloud.DefaultCatalog(), base.TrainingTime*0.4, 0.4)
	ctl, provider := newElasticController(t, cloud.FaultPlan{}, set)
	job := mustSubmit(t, ctl, recoveryGoal)
	if job.Status != StatusSucceeded {
		t.Fatalf("status = %s (%s)", job.Status, job.Err)
	}
	if job.ElasticScales < 1 {
		t.Fatalf("elastic scales = %d, want >= 1 (price dropped 60%% mid-run)", job.ElasticScales)
	}
	if job.Cost >= base.Cost {
		t.Errorf("elastic cost $%.3f not below static $%.3f after the drop", job.Cost, base.Cost)
	}
	var spot, onDemand int
	for _, inst := range provider.List(map[string]string{"job": job.ID}) {
		if inst.State != cloud.StateTerminated {
			continue
		}
		if inst.Spot {
			spot++
		} else {
			onDemand++
		}
	}
	if spot == 0 || onDemand == 0 {
		t.Errorf("instances: %d spot, %d on-demand; want both (re-homed mid-run)", spot, onDemand)
	}
	// Each rebuild is journaled as the decision, then the executed scale.
	decided, scales := false, 0
	for _, e := range ctl.master.Journal().JobEvents(job.ID) {
		switch e.Type {
		case journal.ElasticReplan:
			if decided {
				t.Error("elastic.replan twice without an elastic.scale between")
			}
			decided = true
		case journal.ElasticScale:
			if !decided {
				t.Error("elastic.scale without a preceding elastic.replan")
			}
			decided = false
			scales++
		}
	}
	if scales != job.ElasticScales {
		t.Errorf("%d elastic.scale events, want ElasticScales = %d", scales, job.ElasticScales)
	}
}

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

// TestSpotRefusalFallsBackOnDemand runs the boom trace: m4.xlarge spot
// opens at a deep discount, so the aggressive strategy takes it, then
// spikes far above the bid at 600 s and revokes the cluster. Recovery's
// like-for-like spot replacement is refused at the spike, and the
// controller rebuilds on-demand. The refusal is journaled once, the
// fallback launches the first feasible candidate of the on-demand
// ranking, and that ranking is the only candidate list ever built: a
// plain submission and a quote answer with Search alone.
func TestSpotRefusalFallsBackOnDemand(t *testing.T) {
	counter := &countingProvisioner{}
	count := func() (int32, int32) {
		return atomic.LoadInt32(&counter.searches), atomic.LoadInt32(&counter.candidates)
	}

	static, _ := newFaultController(t, cloud.FaultPlan{})
	static.UseProvisioner(counter)
	mustSubmit(t, static, recoveryGoal)
	if s, c := count(); s != 1 || c != 0 {
		t.Fatalf("plain submit ran %d searches and %d candidate lists, want 1 and 0", s, c)
	}

	set := &pricing.TraceSet{Name: "boom-preempt", Traces: []pricing.Trace{{Type: cloud.M4XLarge, Points: []pricing.Point{
		{AtSec: 0, Price: 0.06}, {AtSec: 600, Price: 0.4}, {AtSec: 1400, Price: 0.07},
	}}}}
	ctl, provider := newElasticController(t, cloud.FaultPlan{}, set)
	ctl.SpotStrategy = pricing.Aggressive
	ctl.UseProvisioner(counter)

	// The fallback ranks the goal over the provider's on-demand catalog,
	// which is what PlanRequest plans on.
	w, err := model.WorkloadByName("mnist DNN")
	if err != nil {
		t.Fatal(err)
	}
	req, err := ctl.PlanRequest(w, recoveryGoal, "")
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := plan.DefaultEngine.Candidates(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) == 0 || !ranked[0].Feasible {
		t.Fatal("no feasible on-demand candidate")
	}
	want := ranked[0]

	job := mustSubmit(t, ctl, recoveryGoal)
	if job.Status != StatusSucceeded || job.Recoveries != 1 {
		t.Fatalf("status = %s after %d recoveries (%s), want succeeded after 1", job.Status, job.Recoveries, job.Err)
	}
	jrnl := ctl.master.Journal()
	if fb := jobEventsOf(jrnl, job.ID, journal.CapacityFallback); len(fb) != 1 || fieldOf(fb[0], "type") != cloud.M4XLarge {
		t.Errorf("job.capacity.fallback events = %+v, want one naming %s", fb, cloud.M4XLarge)
	}
	var chosen []journal.Event
	for _, e := range jobEventsOf(jrnl, job.ID, journal.PlanChosen) {
		if fieldOf(e, "fallback") == "true" {
			chosen = append(chosen, e)
		}
	}
	if len(chosen) != 1 {
		t.Fatalf("%d job.plan.chosen events with fallback=true, want 1", len(chosen))
	}
	if e := chosen[0]; fieldOf(e, "type") != want.Type.Name || fieldOf(e, "workers") != fmt.Sprint(want.Workers) || fieldOf(e, "ps") != fmt.Sprint(want.PS) {
		t.Errorf("fallback plan.chosen %+v, want %dx %s + %d PS", e.Fields, want.Workers, want.Type.Name, want.PS)
	}
	if job.Plan != want {
		t.Errorf("job ran %+v, the first feasible on-demand candidate is %+v", job.Plan, want)
	}
	if n := provider.RunningCount(""); n != 0 {
		t.Errorf("%d instances left running", n)
	}
	searches, c := count()
	if c != 1 {
		t.Errorf("the refusal built %d candidate lists, want 1", c)
	}

	// Quotes answer with the plan alone.
	svc := service.New(service.Config{Provisioner: counter, Catalog: provider.Catalog(), Registry: obs.NewRegistry()})
	t.Cleanup(svc.Close)
	h := NewAPI(ctl.master, ctl, WithPlanService(svc)).Handler()
	for _, d := range []float64{3600, 5400, 9000} {
		if rec, _ := doJSON(t, h, "POST", "/api/plan", planBody(d)); rec.Code != http.StatusOK {
			t.Fatalf("quote %.0f: %d", d, rec.Code)
		}
	}
	if s, c := count(); s != searches+3 || c != 1 {
		t.Errorf("three quotes moved the counts from %d and 1 to %d searches and %d candidate lists, want %d and 1", searches, s, c, searches+3)
	}
}

// TestElasticScaleSpotRefusalFallsBackOnDemand: every price drops to
// 40% mid-run, so the aggressive strategy re-homes the cluster to spot
// at a bid 5% over the dropped price. The price returns to on-demand 10 s
// after the drop, inside the 15 s rebuild overhead the scale charges
// before it launches, so the market refuses the new cluster. The
// rebuild falls back on-demand once instead of failing the job.
func TestElasticScaleSpotRefusalFallsBackOnDemand(t *testing.T) {
	base := staticBaseline(t)
	dropAt := base.TrainingTime * 0.4
	set := &pricing.TraceSet{Name: "drop-spike"}
	for _, it := range cloud.DefaultCatalog().Types() {
		set.Traces = append(set.Traces, pricing.Trace{Type: it.Name, Points: []pricing.Point{
			{AtSec: 0, Price: it.PricePerHour},
			{AtSec: dropAt, Price: 0.4 * it.PricePerHour},
			{AtSec: dropAt + 10, Price: it.PricePerHour},
		}})
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	ctl, provider := newElasticController(t, cloud.FaultPlan{}, set)
	ctl.SpotStrategy = pricing.Aggressive
	job := mustSubmit(t, ctl, recoveryGoal)
	if job.Status != StatusSucceeded {
		t.Fatalf("status = %s (%s)", job.Status, job.Err)
	}
	jrnl := ctl.master.Journal()
	if n := len(jobEventsOf(jrnl, job.ID, journal.ElasticReplan)); n != 1 {
		t.Fatalf("%d elastic.replan events, want 1 (the drop)", n)
	}
	if fb := jobEventsOf(jrnl, job.ID, journal.CapacityFallback); len(fb) != 1 {
		t.Errorf("job.capacity.fallback events = %+v, want one", fb)
	}
	scales := jobEventsOf(jrnl, job.ID, journal.ElasticScale)
	if len(scales) != 1 || fieldOf(scales[0], "market") != "" {
		t.Errorf("elastic.scale events = %+v, want one rebuild on-demand", scales)
	}
	for _, inst := range provider.List(map[string]string{"job": job.ID}) {
		if inst.Spot {
			t.Errorf("spot instance %s launched above the market price", inst.ID)
		}
	}
	if n := provider.RunningCount(""); n != 0 {
		t.Errorf("%d instances left running", n)
	}
}

// elasticDurableWorld is newElasticController plus an attached crash
// checkpointer, mirroring newDurableWorld.
func elasticDurableWorld(t *testing.T, fp cloud.FaultPlan, set *pricing.TraceSet, killAt int) (*Controller, *crashAt) {
	t.Helper()
	ctl, provider := newElasticController(t, fp, set)
	k := &crashAt{ctl: ctl, master: ctl.master, provider: provider, killAt: killAt}
	ctl.Durability = k
	return ctl, k
}

// elasticResumeAll is resumeAll for an elastic world: the restarted
// master re-attaches the same price traces and optimizer config before
// resuming, the way a real restart re-reads its market configuration.
func elasticResumeAll(t *testing.T, snap worldExport, set *pricing.TraceSet) *Controller {
	t.Helper()
	ctl := restoreWorld(t, snap)
	m, err := cloud.NewMarket(ctl.provider.Catalog(), set)
	if err != nil {
		t.Fatal(err)
	}
	ctl.provider.SetMarket(m)
	resume, queued, leftover := ctl.PendingJobs()
	if len(queued) != 0 || len(leftover) != 0 {
		t.Fatalf("unexpected queued=%v leftover=%v", queued, leftover)
	}
	for _, id := range resume {
		if _, err := ctl.ResumeJob(id); err != nil {
			t.Fatalf("resume %s: %v", id, err)
		}
	}
	return ctl
}

// TestElasticKillResumeAtEveryBarrier extends the crash-durability sweep
// over the elastic pipeline: a run that both re-homes at a price drop
// AND recovers from a preemption is killed at every durability barrier —
// including the PhaseElastic kill-check between the elastic.replan
// decision and the scale action — and every resumed run must finish with
// controller and provider state bit-identical to the uninterrupted
// run's. In particular a kill at PhaseElastic must neither double-launch
// the new cluster nor strand the old one.
func TestElasticKillResumeAtEveryBarrier(t *testing.T) {
	nInst, t0 := baselineShape(t)
	fp := lastInstancePlan(nInst, t0)
	set := dropSet(t, cloud.DefaultCatalog(), t0*0.7, 0.4)

	ctl0, k0 := elasticDurableWorld(t, fp, set, 0)
	job0 := mustSubmit(t, ctl0, recoveryGoal)
	if job0.Status != StatusSucceeded {
		t.Fatalf("uninterrupted status = %s (%s)", job0.Status, job0.Err)
	}
	if job0.ElasticScales == 0 {
		t.Fatal("scenario produced no elastic scale; the sweep would skip PhaseElastic")
	}
	if job0.Recoveries == 0 {
		t.Fatal("scenario produced no recovery; the sweep would skip the recovery barriers")
	}
	want := worldExport{ctl0.ExportState(nil), k0.master.ExportState(), k0.provider.ExportState(nil)}
	var running int
	for _, inst := range want.provider.Instances {
		if inst.State == cloud.StateRunning {
			running++
		}
	}
	if running != 0 {
		t.Fatalf("uninterrupted run stranded %d running instances", running)
	}

	seen := map[Phase]bool{}
	for killAt := 1; killAt <= k0.count; killAt++ {
		phase := k0.phases[killAt-1]
		seen[phase] = true
		ctl1, k1 := elasticDurableWorld(t, fp, set, killAt)
		_, err := mustSubmitKilled(t, ctl1)
		if !errors.Is(err, ErrMasterKilled) {
			t.Fatalf("killAt=%d (%s): err = %v, want ErrMasterKilled", killAt, phase, err)
		}
		ctl2 := elasticResumeAll(t, k1.snap, set)
		if got := ctl2.ExportState(nil); !reflect.DeepEqual(got, want.ctl) {
			t.Errorf("killAt=%d (%s): controller state diverged from uninterrupted run\n got %+v\nwant %+v",
				killAt, phase, got, want.ctl)
		}
		if gotP := exportProvider(ctl2); !reflect.DeepEqual(gotP, want.provider) {
			t.Errorf("killAt=%d (%s): provider state diverged\n got %+v\nwant %+v",
				killAt, phase, gotP, want.provider)
		}
	}
	if !seen[PhaseElastic] {
		t.Error("sweep never crossed a PhaseElastic barrier")
	}
	for _, p := range []Phase{PhaseSegment, PhaseRecovery, PhaseRecoveryMid, PhaseFinal, PhaseDone} {
		if !seen[p] {
			t.Errorf("sweep never crossed a %s barrier", p)
		}
	}
}

package cluster

// elastic_test.go proves the continuous optimizer at the controller
// layer: spot adoption at submit, bit-identical parity with the static
// controller on a flat trace, mid-run re-planning at a price drop, and
// the crash-durability sweep extended over the PhaseElastic barrier —
// a master killed between the elastic.replan decision and the scale
// action neither double-launches nor strands instances.

import (
	"errors"
	"reflect"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/cloud/pricing"
	"cynthia/internal/obs/journal"
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

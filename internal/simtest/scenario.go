package simtest

// The golden end-to-end corpus: JSON scenario files under
// testdata/scenarios describe one job each — workload, goal, provisioner,
// fault schedule, recovery knobs — and RunScenario replays the full
// planner -> controller -> ddnnsim pipeline on a simulated provider
// clock. Every float in the Outcome round-trips through JSON bit-for-bit
// (encoding/json emits the shortest representation that parses back to
// the same float64), so golden comparisons are exact, not approximate.
// Regenerate expectations with:
//
//	go test ./internal/simtest -run Golden -update

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"cynthia/internal/baseline"
	"cynthia/internal/cloud"
	"cynthia/internal/cloud/pricing"
	"cynthia/internal/cluster"
	"cynthia/internal/model"
	"cynthia/internal/obs/journal"
	"cynthia/internal/plan"
)

// FaultSpec mirrors cloud.FaultPlan with JSON tags so scenario files can
// schedule provider faults declaratively.
type FaultSpec struct {
	Seed                    int64   `json:"seed,omitempty"`
	TransientRate           float64 `json:"transient_rate,omitempty"`
	MaxConsecutiveTransient int     `json:"max_consecutive_transient,omitempty"`
	LaunchDelayMaxSec       float64 `json:"launch_delay_max_sec,omitempty"`
	PreemptRate             float64 `json:"preempt_rate,omitempty"`
	PreemptMinSec           float64 `json:"preempt_min_sec,omitempty"`
	PreemptMaxSec           float64 `json:"preempt_max_sec,omitempty"`
	PreemptAtSec            float64 `json:"preempt_at_sec,omitempty"`
	PreemptNth              int     `json:"preempt_nth,omitempty"`
	// KillMasterAtSec schedules master crashes: each entry kills the
	// control plane at the first durability barrier at or after that
	// simulated time (requires the crash-restart harness, RunScenarioCrashed).
	KillMasterAtSec []float64 `json:"kill_master_at_sec,omitempty"`
}

func (f *FaultSpec) plan() cloud.FaultPlan {
	return cloud.FaultPlan{
		Seed:                    f.Seed,
		TransientRate:           f.TransientRate,
		MaxConsecutiveTransient: f.MaxConsecutiveTransient,
		LaunchDelayMaxSec:       f.LaunchDelayMaxSec,
		PreemptRate:             f.PreemptRate,
		PreemptMinSec:           f.PreemptMinSec,
		PreemptMaxSec:           f.PreemptMaxSec,
		PreemptAtSec:            f.PreemptAtSec,
		PreemptNth:              f.PreemptNth,
		KillMasterAtSec:         append([]float64(nil), f.KillMasterAtSec...),
	}
}

// SpotSpec attaches a spot market to the scenario's provider, which turns
// on the controller's continuous optimizer (see cluster.Controller's
// SpotStrategy).
type SpotSpec struct {
	// Strategy is the bidding posture: "aggressive", "balanced", or
	// "conservative" (default balanced).
	Strategy string `json:"strategy,omitempty"`
	// TraceFile names a price-trace JSON file (pricing.TraceSet),
	// resolved relative to the test working directory like the scenario
	// files themselves. Ignored when Traces is set inline.
	TraceFile string `json:"trace_file,omitempty"`
	// Traces embeds the price traces directly in the scenario, keeping
	// the golden file self-contained.
	Traces *pricing.TraceSet `json:"traces,omitempty"`
}

// traceSet resolves the spec's price traces, inline or from file.
func (sp *SpotSpec) traceSet() (*pricing.TraceSet, error) {
	if sp.Traces != nil {
		return sp.Traces, nil
	}
	if sp.TraceFile != "" {
		return pricing.LoadTraceSet(sp.TraceFile)
	}
	return nil, fmt.Errorf("spot spec needs traces or trace_file")
}

// RecoverySpec selects the controller recovery knobs a scenario overrides.
type RecoverySpec struct {
	Disabled bool `json:"disabled,omitempty"`
}

// Outcome is everything a scenario replay asserts on: the plan the search
// chose, the simulated training outcome, and the job's lifecycle history.
type Outcome struct {
	Status         string   `json:"status"`
	Error          string   `json:"error,omitempty"`
	PlanType       string   `json:"plan_type,omitempty"`
	Workers        int      `json:"workers,omitempty"`
	PS             int      `json:"ps,omitempty"`
	Iterations     int      `json:"iterations,omitempty"`
	PredTimeSec    float64  `json:"pred_time_sec,omitempty"`
	PredCostUSD    float64  `json:"pred_cost_usd,omitempty"`
	Feasible       bool     `json:"feasible"`
	TrainingTime   float64  `json:"training_time,omitempty"`
	FinalLoss      float64  `json:"final_loss,omitempty"`
	CostUSD        float64  `json:"cost_usd,omitempty"`
	Recoveries     int      `json:"recoveries,omitempty"`
	LostIterations int      `json:"lost_iterations,omitempty"`
	ElasticScales  int      `json:"elastic_scales,omitempty"`
	History        []string `json:"history"`
}

// Scenario is one golden end-to-end case, loaded from
// testdata/scenarios/<name>.json.
type Scenario struct {
	Name        string  `json:"name"`
	Description string  `json:"description"`
	Workload    string  `json:"workload"`
	Sync        string  `json:"sync,omitempty"`       // "bsp"/"asp" override
	Iterations  int     `json:"iterations,omitempty"` // iteration override
	GoalTimeSec float64 `json:"goal_time_sec"`
	LossTarget  float64 `json:"loss_target"`
	Seed        int64   `json:"seed"`
	Provisioner string  `json:"provisioner,omitempty"` // "", "cynthia", "marginalgain"

	Fault    *FaultSpec    `json:"fault,omitempty"`
	Recovery *RecoverySpec `json:"recovery,omitempty"`
	Spot     *SpotSpec     `json:"spot,omitempty"`

	// Expect is the golden outcome; -update rewrites it.
	Expect *Outcome `json:"expect,omitempty"`
}

// LoadScenario reads one scenario file.
func LoadScenario(path string) (*Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := new(Scenario)
	if err := json.Unmarshal(data, s); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return s, nil
}

// SaveScenario writes the scenario back (used by -update).
func (s *Scenario) Save(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// RunScenario replays the scenario through a fresh master + controller on
// a manually driven provider clock — the same wiring the robustness
// experiment uses — and returns the observed outcome. The replay is fully
// deterministic: the simulator seed, the fault plan's seed, and the
// provider clock all derive from the scenario file.
func RunScenario(s *Scenario) (*Outcome, error) {
	out, _, err := RunScenarioDetailed(s)
	return out, err
}

// scenarioWorld is one fully wired control plane for a scenario replay:
// master, provider on a manually driven clock, controller, deterministic
// journal. The crash-restart harness builds a fresh one per master
// incarnation.
type scenarioWorld struct {
	workload *model.Workload
	master   *cluster.Master
	provider *cloud.Provider
	ctl      *cluster.Controller
	jrnl     *journal.Journal
	now      *float64
}

// goal returns the scenario's training goal.
func (s *Scenario) goal() plan.Goal {
	return plan.Goal{TimeSec: s.GoalTimeSec, LossTarget: s.LossTarget}
}

// buildWorld wires the scenario's control plane. A non-nil sink receives
// every journal event in canonical JSONL (the durable WAL path);
// RunScenario passes nil and keeps the journal in memory only.
func buildWorld(s *Scenario, sink io.Writer) (*scenarioWorld, error) {
	w, err := model.WorkloadByName(s.Workload)
	if err != nil {
		return nil, err
	}
	switch s.Sync {
	case "":
	case "bsp":
		w = w.WithSync(model.BSP)
	case "asp":
		w = w.WithSync(model.ASP)
	default:
		return nil, fmt.Errorf("scenario %s: unknown sync mode %q", s.Name, s.Sync)
	}
	if s.Iterations > 0 {
		w = w.WithIterations(s.Iterations)
	}

	master, err := cluster.NewMaster()
	if err != nil {
		return nil, err
	}
	now := new(float64)
	provider := cloud.NewProvider(cloud.DefaultCatalog(), func() float64 { return *now })
	// Deterministic flight recorder: timestamps come from the simulated
	// provider clock only, never the wall clock, so the canonical JSONL is
	// reproducible byte for byte. The capacity comfortably holds a full
	// replay, so nothing wraps out of the ring.
	jopts := []journal.Option{journal.Deterministic()}
	if sink != nil {
		jopts = append(jopts, journal.WithSink(sink))
	}
	jrnl := journal.New(16384, jopts...)
	master.SetJournal(jrnl, nil)
	provider.SetJournal(jrnl)
	if s.Fault != nil {
		provider.SetFaultPlan(s.Fault.plan())
	}
	ctl := cluster.NewController(master, provider, nil, "")
	ctl.AdvanceClock = func(dt float64) { *now += dt }
	ctl.SimSeed = s.Seed
	ctl.Recovery.Sleep = func(time.Duration) {}
	if s.Recovery != nil {
		ctl.Recovery.Disabled = s.Recovery.Disabled
	}
	switch s.Provisioner {
	case "", "cynthia":
	case "marginalgain":
		ctl.UseProvisioner(baseline.MarginalGain{})
	default:
		return nil, fmt.Errorf("scenario %s: unknown provisioner %q", s.Name, s.Provisioner)
	}
	if s.Spot != nil {
		set, err := s.Spot.traceSet()
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %v", s.Name, err)
		}
		strat := pricing.Balanced
		if s.Spot.Strategy != "" {
			if strat, err = pricing.ParseStrategy(s.Spot.Strategy); err != nil {
				return nil, fmt.Errorf("scenario %s: %v", s.Name, err)
			}
		}
		m, err := cloud.NewMarket(provider.Catalog(), set)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %v", s.Name, err)
		}
		provider.SetMarket(m)
		ctl.SpotStrategy = strat
	}
	return &scenarioWorld{workload: w, master: master, provider: provider, ctl: ctl, jrnl: jrnl, now: now}, nil
}

// RunScenarioDetailed is RunScenario plus the run's flight-recorder
// journal. The journal runs in deterministic mode (no wall clock) on the
// simulated provider clock, so two replays of the same scenario produce
// byte-identical canonical JSONL.
func RunScenarioDetailed(s *Scenario) (*Outcome, *journal.Journal, error) {
	world, err := buildWorld(s, nil)
	if err != nil {
		return nil, nil, err
	}
	job, err := world.ctl.Submit(world.workload, s.goal())
	if job == nil {
		return nil, nil, err
	}
	return outcomeOf(job), world.jrnl, nil
}

// outcomeOf converts a finished job into the golden Outcome shape.
func outcomeOf(job *cluster.Job) *Outcome {
	out := &Outcome{
		Status:         string(job.Status),
		Error:          job.Err,
		PlanType:       job.Plan.Type.Name,
		Workers:        job.Plan.Workers,
		PS:             job.Plan.PS,
		Iterations:     job.Plan.Iterations,
		PredTimeSec:    job.Plan.PredTime,
		PredCostUSD:    job.Plan.Cost,
		Feasible:       job.Plan.Feasible,
		TrainingTime:   job.TrainingTime,
		FinalLoss:      job.FinalLoss,
		CostUSD:        job.Cost,
		Recoveries:     job.Recoveries,
		LostIterations: job.LostIterations,
		ElasticScales:  job.ElasticScales,
	}
	for _, st := range job.History {
		out.History = append(out.History, string(st))
	}
	return out
}

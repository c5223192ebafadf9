package plan

// The candidate enumerator: the one source of truth for which (type, nps,
// n) configurations Algorithm 1 considers. Provision (first-feasible early
// break) and Candidates (exhaustive, ranked) both consume this stream, so
// the Theorem 4.1 bounds, the worker quota, and Constraint (11) are
// applied in exactly one place.

import (
	"fmt"
	"math"

	"cynthia/internal/cloud"
	"cynthia/internal/model"
	"cynthia/internal/obs/journal"
	"cynthia/internal/perf"
)

// normalized is a Request after the single defaulting pass, unpacked for
// the search core. maxEsc is the concrete number of extra PS steps (>= 0)
// and goal already carries the headroom reserve. fast is pred's
// homogeneous fast path, nil when the predictor has none.
type normalized struct {
	profile    *perf.Profile
	pred       perf.Predictor
	fast       perf.HomogeneousPredictor
	catalog    *cloud.Catalog
	maxEsc     int
	maxWorkers int
	goal       Goal
	journal    journal.Binding
}

// Normalize validates the request and applies every default exactly once:
// predictor, catalog, worker quota, PS-escalation budget, and the deadline
// headroom (which is folded into Goal.TimeSec and then marked applied, so
// the call is idempotent). Every search entry point — Provision,
// Candidates, Evaluate, and external Provisioner implementations — goes
// through this one path.
func (req Request) Normalize() (Request, error) {
	if req.Profile == nil {
		return Request{}, fmt.Errorf("plan: nil profile")
	}
	if err := req.Profile.Validate(); err != nil {
		return Request{}, err
	}
	if err := req.Goal.Validate(); err != nil {
		return Request{}, err
	}
	out := req
	if out.Predictor == nil {
		out.Predictor = perf.Cynthia{}
	}
	if out.Catalog == nil {
		out.Catalog = cloud.DefaultCatalog()
	}
	switch {
	case out.MaxPSEscalations == 0:
		out.MaxPSEscalations = DefaultMaxPSEscalations
	case out.MaxPSEscalations < 0:
		out.MaxPSEscalations = NoEscalation
	}
	if out.MaxWorkers <= 0 {
		out.MaxWorkers = DefaultMaxWorkers
	}
	switch {
	case out.Headroom == 0:
		out.Headroom = DefaultHeadroom
	case out.Headroom < 0:
		out.Headroom = NoHeadroom
	}
	// A reserve of 100% or more (or NaN) would fold into a non-positive
	// deadline; the !(x < 1) form also rejects NaN.
	if !(out.Headroom < 1) {
		return Request{}, fmt.Errorf("plan: headroom %v must be below 1", out.Headroom)
	}
	if out.Headroom != NoHeadroom {
		out.Goal.TimeSec *= 1 - out.Headroom
		out.Headroom = NoHeadroom // reserve folded into the goal
	}
	return out, nil
}

// normalize unpacks a Normalized request for the search core.
func (req Request) normalize() (normalized, error) {
	nr, err := req.Normalize()
	if err != nil {
		return normalized{}, err
	}
	maxEsc := nr.MaxPSEscalations
	if maxEsc == NoEscalation {
		maxEsc = 0
	}
	fast, _ := nr.Predictor.(perf.HomogeneousPredictor)
	return normalized{
		profile:    nr.Profile,
		pred:       nr.Predictor,
		fast:       fast,
		catalog:    nr.Catalog,
		maxEsc:     maxEsc,
		maxWorkers: nr.MaxWorkers,
		goal:       nr.Goal,
		journal:    nr.Journal.WithSource("plan"),
	}, nil
}

// upperWorkersFor recomputes the Theorem 4.1 upper bound when the PS tier
// is escalated past its minimum count: with more PS capacity the
// compute/communication balance point (Eq. 19) moves out.
func upperWorkersFor(p *perf.Profile, t cloud.InstanceType, bounds Bounds, nps int) int {
	if nps == bounds.PS {
		return bounds.UpperWorkers
	}
	upper := int(math.Ceil(bounds.Ratio * float64(nps)))
	if p.Workload.Sync == model.BSP {
		balance := math.Sqrt(p.WiterGFLOPs * float64(nps) * t.NetMBps / (2 * p.GparamMB * t.GFLOPS))
		upper = int(math.Ceil(math.Min(float64(upper), balance)))
	}
	return upper
}

// EnumerateConfigs streams the (workers, ps) configurations Algorithm 1
// scans for one instance type, in scan order — PS escalations ascending,
// worker counts ascending — until yield returns false or the space is
// exhausted. It normalizes the request through the same single defaulting
// path the engine uses, so the stream is exactly the candidate set a
// Provision or Candidates run would evaluate for that type. A type whose
// Theorem 4.1 bounds are unsatisfiable, or whose lower bound exceeds the
// worker quota, yields nothing. The test harness (internal/simtest) audits
// the engine against this stream: the chosen plan must be the cheapest
// first-feasible configuration it contains.
func EnumerateConfigs(req Request, t cloud.InstanceType, yield func(workers, ps int) bool) error {
	cfg, err := req.normalize()
	if err != nil {
		return err
	}
	bounds, err := ComputeBounds(cfg.profile, t, cfg.goal)
	if err != nil || bounds.LowerWorkers > cfg.maxWorkers {
		return nil // this type offers no selectable candidates
	}
	enumerate(cfg, t, bounds, yield)
	return nil
}

// enumerate streams the Algorithm 1 candidate configurations for one
// instance type in scan order — PS escalations ascending, worker counts
// ascending — until yield returns false or the space is exhausted. The
// worker range starts at max(LowerWorkers, nps): Constraint (11) requires
// at least as many workers as PS nodes, so smaller counts are skipped, not
// abandoned (the former Provision loop broke out of the whole escalation
// level here, silently losing every legal candidate above nps).
func enumerate(cfg normalized, t cloud.InstanceType, bounds Bounds, yield func(n, nps int) bool) {
	for esc := 0; esc <= cfg.maxEsc; esc++ {
		nps := bounds.PS + esc
		upper := min(upperWorkersFor(cfg.profile, t, bounds, nps), cfg.maxWorkers)
		for n := max(bounds.LowerWorkers, nps); n <= upper; n++ {
			if !yield(n, nps) {
				return
			}
		}
	}
}

package plan

// The candidate enumerator: the one source of truth for which (type, nps,
// n) configurations Algorithm 1 considers. Search (first-feasible early
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

// normalized is a Request after Normalize, unpacked for the search core.
// goal already carries the Headroom reserve; fast is pred's homogeneous
// fast path, nil when the predictor has none.
type normalized struct {
	profile *perf.Profile
	pred    perf.Predictor
	fast    perf.HomogeneousPredictor
	catalog *cloud.Catalog
	goal    Goal
	journal journal.Binding
}

// Normalize validates the request and fills in the default predictor and
// catalog. It leaves the goal as given, so it is idempotent; the search
// core applies the Headroom reserve. Every search entry point — Provision,
// Candidates, Search, Evaluate, EnumerateConfigs, and external
// Provisioner implementations — goes through this one path.
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
	if req.Predictor == nil {
		req.Predictor = perf.Cynthia{}
	}
	if req.Catalog == nil {
		req.Catalog = cloud.DefaultCatalog()
	}
	return req, nil
}

// normalize unpacks a Normalized request for the search core and folds
// the Headroom reserve into its deadline, once per search.
func (req Request) normalize() (normalized, error) {
	nr, err := req.Normalize()
	if err != nil {
		return normalized{}, err
	}
	fast, _ := nr.Predictor.(perf.HomogeneousPredictor)
	goal := nr.Goal
	// Round the reserve to float64 before subtracting: the exact constant
	// 1-Headroom is one ulp away from the float64 difference plans have
	// always been computed with.
	goal.TimeSec *= 1 - float64(Headroom)
	return normalized{
		profile: nr.Profile,
		pred:    nr.Predictor,
		fast:    fast,
		catalog: nr.Catalog,
		goal:    goal,
		journal: nr.Journal.WithSource("plan"),
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
// Candidates run evaluates for that type; Search evaluates its prefix up
// to the first feasible configuration. A type whose
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
	if err != nil || bounds.LowerWorkers > MaxWorkers {
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
	for esc := 0; esc <= maxPSEscalations; esc++ {
		nps := bounds.PS + esc
		upper := min(upperWorkersFor(cfg.profile, t, bounds, nps), MaxWorkers)
		for n := max(bounds.LowerWorkers, nps); n <= upper; n++ {
			if !yield(n, nps) {
				return
			}
		}
	}
}

package main

// The answer oracle recomputes each checked answer from public pieces —
// profile.Run on m4.xlarge, perf.Cynthia, cloud.DefaultCatalog and
// plan.SearchWith over plan.DefaultEngine — and compares the served plan
// field by field for exact equality. It runs after the measured phase.

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"cynthia/internal/cloud"
	"cynthia/internal/cluster"
	"cynthia/internal/model"
	"cynthia/internal/perf"
	"cynthia/internal/plan"
	"cynthia/internal/profile"
)

// reply is the union of the quote (PlanResponse) and job (JobResponse)
// fields the oracle and the digest read.
type reply struct {
	Status       string  `json:"status"`
	InstanceType string  `json:"instance_type"`
	Workers      int     `json:"workers"`
	PS           int     `json:"ps"`
	Iterations   int     `json:"iterations"`
	PredTimeSec  float64 `json:"predicted_sec"`
	TrainingSec  float64 `json:"training_sec"`
	FinalLoss    float64 `json:"final_loss"`
	CostUSD      float64 `json:"cost_usd"`
	Feasible     bool    `json:"feasible"`
}

// answer is what the client saw for one request.
type answer struct {
	Start, End int64 // Unix ns: request written, body fully read
	Code       int
	Err        string // transport or decode error
	Reply      reply
}

// oracle memoizes one profile per workload and one search per question.
type oracle struct {
	catalog   *cloud.Catalog
	profiles  map[string]*perf.Profile
	plans     map[string]plan.Plan
	profileMs []float64
}

func newOracle() *oracle {
	return &oracle{catalog: cloud.DefaultCatalog(), profiles: map[string]*perf.Profile{}, plans: map[string]plan.Plan{}}
}

func (o *oracle) plan(c class, deadline float64) (plan.Plan, error) {
	key := c.Workload + "|" + strconv.FormatFloat(deadline, 'g', -1, 64) + "|" + strconv.FormatFloat(c.LossTarget, 'g', -1, 64)
	if p, ok := o.plans[key]; ok {
		return p, nil
	}
	prof, ok := o.profiles[c.Workload]
	if !ok {
		w, err := model.WorkloadByName(c.Workload)
		if err != nil {
			return plan.Plan{}, err
		}
		base, err := o.catalog.Lookup(cloud.M4XLarge)
		if err != nil {
			return plan.Plan{}, err
		}
		start := time.Now()
		rep, err := profile.Run(w, base, 0)
		if err != nil {
			return plan.Plan{}, err
		}
		o.profileMs = append(o.profileMs, float64(time.Since(start))/1e6)
		prof = rep.Profile
		o.profiles[c.Workload] = prof
	}
	res, err := plan.SearchWith(context.Background(), plan.DefaultEngine, plan.Request{
		Profile:   prof,
		Goal:      plan.Goal{TimeSec: deadline, LossTarget: c.LossTarget},
		Predictor: perf.Cynthia{},
		Catalog:   o.catalog,
	})
	if err != nil {
		return plan.Plan{}, err
	}
	o.plans[key] = res.Plan
	return res.Plan, nil
}

// check verifies the answers of one repetition and returns a description
// of each failure: transport errors, non-2xx replies, jobs that failed, and
// answers the oracle disagrees with. Quote keys are checked exhaustively
// when the spec says every key, otherwise on a seeded 1-in-SampleEvery
// sample of requests.
func (o *oracle) check(s spec, seed int64, reqs []request, answers []answer) []string {
	var problems []string
	sample := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i, a := range answers {
		pick := s.SampleEvery <= 1 || sample.Intn(s.SampleEvery) == 0
		switch {
		case a.Err != "":
			problems = append(problems, fmt.Sprintf("request %d: %s", i, a.Err))
			continue
		case a.Code < 200 || a.Code > 299:
			problems = append(problems, fmt.Sprintf("request %d: HTTP %d", i, a.Code))
			continue
		}
		r := a.Reply
		if s.Route == routeJobs && r.Status != string(cluster.StatusSucceeded) && r.Status != string(cluster.StatusMissedGoal) {
			problems = append(problems, fmt.Sprintf("request %d: job ended %q", i, r.Status))
			continue
		}
		if !pick {
			continue
		}
		want, err := o.plan(reqs[i].Class, reqs[i].Deadline)
		if err != nil {
			problems = append(problems, fmt.Sprintf("request %d: oracle: %v", i, err))
			continue
		}
		got := []any{r.InstanceType, r.Workers, r.PS, r.Iterations, r.PredTimeSec}
		exp := []any{want.Type.Name, want.Workers, want.PS, want.Iterations, want.PredTime}
		if s.Route == routePlan {
			// A job's cost_usd is what it was billed, not the plan's price,
			// and its reply has no feasible flag.
			got = append(got, r.CostUSD, r.Feasible)
			exp = append(exp, want.Cost, want.Feasible)
		}
		if fmt.Sprint(got) != fmt.Sprint(exp) {
			problems = append(problems, fmt.Sprintf("request %d (%s): served %v, oracle %v", i, reqs[i].Body, got, exp))
		}
	}
	return problems
}

// profileMs is the median wall time of the oracle's profile.Run calls.
func (o *oracle) profileMedianMs() float64 { return pct(o.profileMs, 50) }

// digest is an FNV-1a hash of every answer in request order: for quotes
// the plan fields, for jobs the status, plan, training time, final loss
// and billed cost. Equal seeds must give equal digests.
func digest(answers []answer) string {
	h := fnv.New64a()
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, a := range answers {
		r := a.Reply
		fmt.Fprintf(h, "%d|%s|%s|%d|%d|%d|%s|%s|%s|%s|%t\n", a.Code, r.Status, r.InstanceType, r.Workers, r.PS,
			r.Iterations, f(r.PredTimeSec), f(r.TrainingSec), f(r.FinalLoss), f(r.CostUSD), r.Feasible)
	}
	return strconv.FormatUint(h.Sum64(), 16)
}

// pct is the nearest-rank p-th percentile of xs (0 for no samples).
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(float64(len(s))*p/100)) - 1
	return s[min(max(i, 0), len(s)-1)]
}

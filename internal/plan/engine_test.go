package plan

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/obs/journal"
)

// engineRequests spans the shapes the engine must handle: single- and
// multi-type catalogs, BSP and ASP workloads, and loose, tight and
// impossible deadlines.
func engineRequests(t *testing.T) []Request {
	t.Helper()
	return []Request{
		{Profile: prof(t, "cifar10 DNN"), Goal: Goal{TimeSec: 5400, LossTarget: 0.8}, Catalog: m4Only(t)},
		{Profile: prof(t, "cifar10 DNN"), Goal: Goal{TimeSec: 3600, LossTarget: 0.6}},
		{Profile: prof(t, "ResNet-32"), Goal: Goal{TimeSec: 5400, LossTarget: 0.6}},
		{Profile: prof(t, "VGG-19"), Goal: Goal{TimeSec: 1800, LossTarget: 0.8}},
		{Profile: prof(t, "mnist DNN"), Goal: Goal{TimeSec: 600, LossTarget: 0.2}},
		{Profile: prof(t, "VGG-19"), Goal: Goal{TimeSec: 300, LossTarget: 0.8}}, // too tight: best effort
		{Profile: prof(t, "VGG-19"), Goal: Goal{TimeSec: 60, LossTarget: 0.8}},  // quota points only
	}
}

// TestEnumerateSkipsConstraint11 pins the Constraint (11) semantics: when
// the minimum PS count exceeds the lower worker bound, worker counts
// below nps are skipped — the scan resumes at n = nps instead of
// abandoning the whole escalation level (the old Provision loop broke
// out here, silently losing every legal candidate above nps).
func TestEnumerateSkipsConstraint11(t *testing.T) {
	// Ratio 0 leaves no room above the minimum PS count on the ASP
	// workload, so every escalated level is empty.
	cfg := normalized{profile: prof(t, "ResNet-32")}
	bounds := Bounds{LowerWorkers: 2, UpperWorkers: 8, PS: 5}
	var got [][2]int
	enumerate(cfg, cloud.InstanceType{}, bounds, func(n, nps int) bool {
		got = append(got, [2]int{n, nps})
		return true
	})
	want := [][2]int{{5, 5}, {6, 5}, {7, 5}, {8, 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("enumerate with PS(5) > LowerWorkers(2): got %v, want %v", got, want)
	}
}

// TestEnumerateEscalationLevelsHonorConstraint11 checks the same skip
// rule on every escalation level of a real workload: each level's worker
// range starts at max(LowerWorkers, nps) and never dips below nps.
func TestEnumerateEscalationLevelsHonorConstraint11(t *testing.T) {
	req := Request{Profile: prof(t, "VGG-19"), Goal: Goal{TimeSec: 1800, LossTarget: 0.8}}
	cfg, err := req.normalize()
	if err != nil {
		t.Fatal(err)
	}
	m4 := lookup(t, cloud.M4XLarge)
	bounds, err := ComputeBounds(cfg.profile, m4, cfg.goal)
	if err != nil {
		t.Fatal(err)
	}
	firstAt := map[int]int{} // nps -> first worker count seen
	enumerate(cfg, m4, bounds, func(n, nps int) bool {
		if n < nps {
			t.Fatalf("candidate (n=%d, nps=%d) violates Constraint 11", n, nps)
		}
		if _, ok := firstAt[nps]; !ok {
			firstAt[nps] = n
		}
		return true
	})
	if len(firstAt) != maxPSEscalations+1 {
		t.Fatalf("saw %d escalation levels, want %d", len(firstAt), maxPSEscalations+1)
	}
	for nps, n := range firstAt {
		if want := max(bounds.LowerWorkers, nps); n != want {
			t.Errorf("level nps=%d starts at n=%d, want %d", nps, n, want)
		}
	}
}

// scanOrder reproduces the enumerator's order from ranked candidates of
// one type: escalation levels ascending (PS), workers ascending within.
func scanOrder(cands []Plan) []Plan {
	out := append([]Plan(nil), cands...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].PS != out[j].PS {
			return out[i].PS < out[j].PS
		}
		return out[i].Workers < out[j].Workers
	})
	return out
}

// TestProvisionIsCheapestFirstFeasible is the property test tying the
// two entry points together: Provision must return exactly the plan you
// get by taking, for each instance type, the first feasible candidate in
// scan order (Algorithm 1's early break), then the cheapest of those
// across types in catalog order (strict comparison, so earlier types win
// ties) — all reconstructed independently from Candidates output.
func TestProvisionIsCheapestFirstFeasible(t *testing.T) {
	for i, req := range engineRequests(t) {
		ranked, err := Candidates(req)
		if err != nil {
			t.Fatalf("req %d: Candidates: %v", i, err)
		}
		pl, err := Provision(req)
		if err != nil {
			t.Fatalf("req %d: Provision: %v", i, err)
		}
		byType := map[string][]Plan{}
		for _, c := range ranked {
			byType[c.Type.Name] = append(byType[c.Type.Name], c)
		}
		nr, err := req.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		var want Plan
		var found bool
		for _, it := range nr.Catalog.Types() {
			for _, c := range scanOrder(byType[it.Name]) {
				if c.Feasible {
					if !found || c.Cost < want.Cost {
						want, found = c, true
					}
					break // first feasible only: the early break
				}
			}
		}
		if !found {
			if pl.Feasible {
				t.Errorf("req %d: Provision claims feasible but Candidates has no feasible plan", i)
			}
			continue
		}
		if pl != want {
			t.Errorf("req %d: Provision returned %+v, want first-feasible-cheapest %+v", i, pl, want)
		}
	}
}

// earlyBreakCounts reconstructs, from a ranked candidate list, what
// Algorithm 1's early break evaluates: per type in catalog order, the
// candidates in scan order up to and including the first feasible one,
// or all of them when none is feasible; feasible counts the types that
// have one.
func earlyBreakCounts(types []cloud.InstanceType, ranked []Plan) (enumerated, feasible int) {
	byType := map[string][]Plan{}
	for _, c := range ranked {
		byType[c.Type.Name] = append(byType[c.Type.Name], c)
	}
	for _, it := range types {
		for _, c := range scanOrder(byType[it.Name]) {
			enumerated++
			if c.Feasible {
				feasible++
				break
			}
		}
	}
	return enumerated, feasible
}

// TestSearchMatchesProvisionPlusCandidates checks that Search picks the
// plan Provision picks, that the plan is among the candidates Candidates
// ranks, and that Stats count exactly what the early break evaluates:
// each type's candidates up to its first feasible one, never more than
// Candidates ranks.
func TestSearchMatchesProvisionPlusCandidates(t *testing.T) {
	ctx := context.Background()
	for i, req := range engineRequests(t) {
		jrnl := journal.New(8, journal.Deterministic())
		traced := req
		traced.Journal = journal.Bind(jrnl, "plan", "t", "")
		res, err := DefaultEngine.Search(ctx, traced)
		if err != nil {
			t.Fatalf("req %d: Search: %v", i, err)
		}
		// The search journals the space it covers, then what it counted.
		events := jrnl.Since(0)
		if len(events) != 2 || events[0].Type != journal.PlanSearchStart || events[1].Type != journal.PlanSearchDone {
			t.Fatalf("req %d: journaled %+v, want plan.search.start then plan.search.done", i, events)
		}
		for _, f := range []struct {
			e    journal.Event
			key  string
			want int
		}{
			{events[0], "types", res.Stats.Types},
			{events[1], "enumerated", res.Stats.Enumerated},
			{events[1], "pruned", res.Stats.Pruned},
			{events[1], "feasible", res.Stats.Feasible},
		} {
			if got := fieldValue(f.e, f.key); got != strconv.Itoa(f.want) {
				t.Errorf("req %d: %s %s = %q, want %d", i, f.e.Type, f.key, got, f.want)
			}
		}
		pl, err := DefaultEngine.Provision(ctx, req)
		if err != nil {
			t.Fatalf("req %d: Provision: %v", i, err)
		}
		ranked, err := DefaultEngine.Candidates(ctx, req)
		if err != nil {
			t.Fatalf("req %d: Candidates: %v", i, err)
		}
		if res.Plan != pl {
			t.Errorf("req %d: Search plan %+v != Provision %+v", i, res.Plan, pl)
		}
		if !slices.Contains(ranked, res.Plan) {
			t.Errorf("req %d: Search plan %+v not among the %d ranked candidates", i, res.Plan, len(ranked))
		}
		nr, err := req.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		enumerated, feasible := earlyBreakCounts(nr.Catalog.Types(), ranked)
		if res.Stats.Enumerated != enumerated || res.Stats.Feasible != feasible {
			t.Errorf("req %d: Search counted %d evaluated, %d feasible; the early break evaluates %d, %d feasible",
				i, res.Stats.Enumerated, res.Stats.Feasible, enumerated, feasible)
		}
		if res.Stats.Enumerated > len(ranked) {
			t.Errorf("req %d: Search evaluated %d candidates, more than the %d Candidates ranks",
				i, res.Stats.Enumerated, len(ranked))
		}
	}
}

// fieldValue returns the value of an event's field, or "" when it has none.
func fieldValue(e journal.Event, key string) string {
	for _, f := range e.Fields {
		if f.Key == key {
			return f.Value
		}
	}
	return ""
}

// TestNormalizeIdempotent: Normalize only validates and fills in
// defaults, so normalizing twice changes nothing and the goal stays as
// given; the search core folds the Headroom reserve in exactly once, even
// for a request that was already Normalized.
func TestNormalizeIdempotent(t *testing.T) {
	req := Request{Profile: prof(t, "cifar10 DNN"), Goal: Goal{TimeSec: 3600, LossTarget: 0.8}}
	once, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	twice, err := once.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if once.Goal != req.Goal || !reflect.DeepEqual(twice, once) {
		t.Fatalf("Normalize not idempotent: %+v, then %+v", once, twice)
	}
	cfg, err := once.normalize()
	if err != nil {
		t.Fatal(err)
	}
	if want := 3600 * (1 - float64(Headroom)); cfg.goal.TimeSec != want {
		t.Fatalf("reserve fold: got %.1fs, want %.1fs", cfg.goal.TimeSec, want)
	}
}

// TestImpossibleDeadlineQuotaPoint: when a deadline is so tight that
// every type's Theorem 4.1 lower bound exceeds the MaxWorkers quota, each
// type still offers its quota point (MaxWorkers workers, the minimum PS
// count) as a best-effort candidate, and Provision and Search both return
// the fastest of them, infeasible.
func TestImpossibleDeadlineQuotaPoint(t *testing.T) {
	req := Request{Profile: prof(t, "VGG-19"), Goal: Goal{TimeSec: 60, LossTarget: 0.8}}
	cfg, err := req.normalize()
	if err != nil {
		t.Fatal(err)
	}
	types := cfg.catalog.Types()
	minPS := map[string]int{}
	for _, ty := range types {
		b, err := ComputeBounds(cfg.profile, ty, cfg.goal)
		if err != nil {
			t.Fatal(err)
		}
		if b.LowerWorkers <= MaxWorkers {
			t.Fatalf("%s: lower bound %d within the quota; the deadline no longer forces quota points", ty.Name, b.LowerWorkers)
		}
		minPS[ty.Name] = min(b.PS, MaxWorkers)
	}
	res, err := DefaultEngine.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	ranked, err := DefaultEngine.Candidates(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != len(types) || res.Stats.Enumerated != len(types) {
		t.Fatalf("%d candidates, %d enumerated, want one quota point per type (%d)",
			len(ranked), res.Stats.Enumerated, len(types))
	}
	fastest := ranked[0]
	for _, c := range ranked {
		if c.Feasible || c.Workers != MaxWorkers || c.PS != minPS[c.Type.Name] {
			t.Errorf("%s: candidate %v is not the infeasible quota point (%d workers, %d PS)",
				c.Type.Name, c, MaxWorkers, minPS[c.Type.Name])
		}
		if c.PredTime < fastest.PredTime {
			fastest = c
		}
	}
	pl, err := Provision(req)
	if err != nil {
		t.Fatal(err)
	}
	if pl != fastest || res.Plan != fastest {
		t.Errorf("Provision %v, Search %v, want the fastest quota point %v", pl, res.Plan, fastest)
	}
}

// TestProvisionCancelled: a cancelled context aborts both entry points.
func TestProvisionCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := Request{Profile: prof(t, "cifar10 DNN"), Goal: Goal{TimeSec: 5400, LossTarget: 0.8}}
	if _, err := DefaultEngine.Provision(ctx, req); !errors.Is(err, context.Canceled) {
		t.Errorf("Provision: got %v, want context.Canceled", err)
	}
	if _, err := DefaultEngine.Candidates(ctx, req); !errors.Is(err, context.Canceled) {
		t.Errorf("Candidates: got %v, want context.Canceled", err)
	}
}

// TestSearchAllocs pins the allocation-free search on the path
// production takes: a shared catalog and no flight recorder. Search and
// Provision allocate nothing; Candidates pays for its list's append
// growth and the Rank keys. A request without a catalog pays for one
// DefaultCatalog, which shares its type list. Each ceiling is the count
// measured when it was set plus 0.1% + 0.5 slack, so one more
// allocation fails.
func TestSearchAllocs(t *testing.T) {
	req := section53Request(t)
	noCatalog := req
	noCatalog.Catalog = nil
	req.Catalog = cloud.DefaultCatalog()
	ctx := context.Background()
	ranked, err := DefaultEngine.Candidates(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) < 100 {
		t.Fatalf("only %d candidates: the request no longer exercises the scan", len(ranked))
	}
	for _, tc := range []struct {
		name     string
		run      func() error
		measured float64
	}{
		{"Search", func() error { _, err := DefaultEngine.Search(ctx, req); return err }, 0},
		{"Provision", func() error { _, err := Provision(req); return err }, 0},
		{"Provision without a catalog", func() error { _, err := Provision(noCatalog); return err }, 1},
		{"Candidates", func() error { _, err := DefaultEngine.Candidates(ctx, req); return err }, 10},
	} {
		allocs := testing.AllocsPerRun(50, func() {
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
		})
		ceiling := tc.measured*1.001 + 0.5
		t.Logf("%s: %.0f allocs, ceiling %.1f", tc.name, allocs, ceiling)
		if allocs > ceiling {
			t.Errorf("%s allocates %.0f objects, above its ceiling %.1f", tc.name, allocs, ceiling)
		}
	}
}

// BenchmarkSearchColdMix times the quote-cold miss in process: Search
// cycles the four Table 1 workloads at their quote-cold loss targets over
// deadlines 1 800–10 800 s on one shared catalog, so no two consecutive
// requests ask the same question. It reports the candidates one search
// evaluates.
func BenchmarkSearchColdMix(b *testing.B) {
	catalog := cloud.DefaultCatalog()
	mix := []struct {
		workload string
		loss     float64
	}{{"ResNet-32", 0.6}, {"mnist DNN", 0.2}, {"VGG-19", 0.8}, {"cifar10 DNN", 0.8}}
	var reqs []Request
	for i := 0; i < 64; i++ {
		c := mix[i%len(mix)]
		deadline := 1800 + float64(i*9000/63)
		reqs = append(reqs, Request{Profile: prof(b, c.workload), Goal: Goal{TimeSec: deadline, LossTarget: c.loss}, Catalog: catalog})
	}
	ctx := context.Background()
	enumerated := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := DefaultEngine.Search(ctx, reqs[i%len(reqs)])
		if err != nil {
			b.Fatal(err)
		}
		enumerated += res.Stats.Enumerated
	}
	b.ReportMetric(float64(enumerated)/float64(b.N), "candidates/op")
}

// TestRankMatchesSliceStable: the index-permutation Rank orders plans
// exactly as sort.SliceStable with the same comparator would, including
// duplicate and NaN costs, where a different stable algorithm could
// legitimately disagree.
func TestRankMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		plans := make([]Plan, rng.Intn(300))
		for i := range plans {
			plans[i] = Plan{Workers: i, Feasible: rng.Intn(2) == 0, Cost: float64(rng.Intn(20))}
			if rng.Intn(10) == 0 {
				plans[i].Cost = math.NaN()
			}
		}
		want := append([]Plan(nil), plans...)
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].Feasible != want[j].Feasible {
				return want[i].Feasible
			}
			return want[i].Cost < want[j].Cost
		})
		Rank(plans)
		for i := range plans {
			if plans[i].Workers != want[i].Workers {
				t.Fatalf("trial %d: position %d holds plan %d, sort.SliceStable puts %d there",
					trial, i, plans[i].Workers, want[i].Workers)
			}
		}
	}
}

// TestCostEq8 pins the exported cost helper to Eq. (8):
// price * (workers + ps) * seconds / 3600.
func TestCostEq8(t *testing.T) {
	it := cloud.InstanceType{Name: "x", PricePerHour: 0.2}
	if got, want := Cost(it, 9, 1, 1800), 0.2*10*0.5; got != want {
		t.Fatalf("Cost = %.6f, want %.6f", got, want)
	}
}

// TestEvaluateExported: external provisioners (baseline.MarginalGain)
// depend on Evaluate agreeing with the engine's own evaluator.
func TestEvaluateExported(t *testing.T) {
	req := Request{Profile: prof(t, "cifar10 DNN"), Goal: Goal{TimeSec: 5400, LossTarget: 0.8}, Catalog: m4Only(t)}
	pl, err := Provision(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Evaluate(req, pl.Type, pl.Workers, pl.PS)
	if err != nil {
		t.Fatal(err)
	}
	if got != pl {
		t.Fatalf("Evaluate(%d, %d) = %+v, differs from Provision's plan %+v", pl.Workers, pl.PS, got, pl)
	}
}

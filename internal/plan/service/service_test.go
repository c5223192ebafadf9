package service

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/model"
	"cynthia/internal/obs"
	"cynthia/internal/obs/journal"
	"cynthia/internal/perf"
	"cynthia/internal/plan"
)

func testProfile(t testing.TB, workload string, catalog *cloud.Catalog) *perf.Profile {
	t.Helper()
	w, err := model.WorkloadByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	base, err := catalog.Lookup(cloud.M4XLarge)
	if err != nil {
		t.Fatal(err)
	}
	return perf.SyntheticProfile(w, base)
}

func testRequest(t testing.TB, catalog *cloud.Catalog, deadline float64) plan.Request {
	t.Helper()
	return plan.Request{
		Profile: testProfile(t, "cifar10 DNN", catalog),
		Goal:    plan.Goal{TimeSec: deadline, LossTarget: 0.8},
		Catalog: catalog,
	}
}

func newTestService(t testing.TB, cfg Config) *Service {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = obs.NewRegistry()
	}
	if cfg.Catalog == nil {
		cfg.Catalog = cloud.DefaultCatalog()
	}
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

// direct is what plan.DefaultEngine answers for req when asked directly.
func direct(t testing.TB, req plan.Request) plan.Result {
	t.Helper()
	res, err := plan.DefaultEngine.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPlanMissThenHit: every request runs a search, so asking the same
// question twice answers twice with what a direct Search returns, plan
// and stats alike.
func TestPlanMissThenHit(t *testing.T) {
	s := newTestService(t, Config{})
	req := testRequest(t, s.Catalog(), 5400)
	want := direct(t, req)
	if want.Stats.Enumerated == 0 {
		t.Fatal("a direct search ran no Theorem 4.1 evaluations")
	}
	for i := range 2 {
		got, err := s.Plan(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("request %d = %+v, a direct search returns %+v", i, got, want)
		}
	}
	if st := s.Stats(); st != (Stats{Requests: 2, Searches: 2}) {
		t.Errorf("stats = %+v, want two requests and two searches", st)
	}
}

func TestDistinctGoalsDistinctEntries(t *testing.T) {
	s := newTestService(t, Config{})
	for _, d := range []float64{5400, 3600} {
		req := testRequest(t, s.Catalog(), d)
		got, err := s.Plan(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if want := direct(t, req); got != want {
			t.Errorf("deadline %.0f = %+v, a direct search returns %+v", d, got, want)
		}
	}
	if got := s.Stats().Searches; got != 2 {
		t.Errorf("searches = %d, want 2", got)
	}
}

// TestNormalizedRequestsShareEntries: a request relying on the default
// predictor and the service's catalog and one spelling them out ask the
// same question and get the same answer.
func TestNormalizedRequestsShareEntries(t *testing.T) {
	s := newTestService(t, Config{})
	implicit := testRequest(t, s.Catalog(), 5400)
	implicit.Catalog = nil
	explicit := implicit
	explicit.Catalog = s.Catalog()
	explicit.Predictor = perf.Cynthia{}

	a, err := s.Plan(context.Background(), implicit)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Plan(context.Background(), explicit)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("implicit defaults answered %+v, explicit %+v", a, b)
	}
}

// TestQuoteAtNewPrice: a catalog is immutable, so a price change is a new
// catalog. A service built on a catalog where the first quote's type
// costs 100x answers what a direct search on that catalog returns, and
// reacts to the price.
func TestQuoteAtNewPrice(t *testing.T) {
	catalog := cloud.DefaultCatalog()
	first, err := newTestService(t, Config{Catalog: catalog}).Plan(context.Background(), testRequest(t, catalog, 5400))
	if err != nil {
		t.Fatal(err)
	}
	types := slices.Clone(catalog.Types())
	for i := range types {
		if types[i].Name == first.Plan.Type.Name {
			types[i].PricePerHour *= 100
		}
	}
	repriced, err := cloud.NewCatalog(types...)
	if err != nil {
		t.Fatal(err)
	}
	req := testRequest(t, repriced, 5400)
	req.Catalog = nil // planned on the service's catalog
	second, err := newTestService(t, Config{Catalog: repriced}).Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	req.Catalog = repriced
	if want := direct(t, req); second != want {
		t.Errorf("quote at the new price = %+v, a direct search returns %+v", second, want)
	}
	if second.Plan.Type.Name == first.Plan.Type.Name && second.Plan.Cost == first.Plan.Cost {
		t.Errorf("plan did not react to a 100x repricing: %+v", second.Plan)
	}
}

// countingProvisioner wraps the engine, counting searches and optionally
// stalling them so tests can hold a search in flight.
type countingProvisioner struct {
	searches atomic.Int64
	release  chan struct{} // nil: don't stall
	inflight chan struct{} // signaled when a search starts
}

func (p *countingProvisioner) Search(ctx context.Context, req plan.Request) (plan.Result, error) {
	p.searches.Add(1)
	if p.inflight != nil {
		p.inflight <- struct{}{}
	}
	if p.release != nil {
		<-p.release
	}
	return plan.DefaultEngine.Search(ctx, req)
}

func (p *countingProvisioner) Candidates(ctx context.Context, req plan.Request) ([]plan.Plan, error) {
	return plan.DefaultEngine.Candidates(ctx, req)
}

// TestOverloadRejects: with QueueDepth searches in flight, one more
// request is rejected at once, even one identical to a running search,
// and the slot frees when the search returns.
func TestOverloadRejects(t *testing.T) {
	prov := &countingProvisioner{
		release:  make(chan struct{}),
		inflight: make(chan struct{}, 1),
	}
	s := newTestService(t, Config{Provisioner: prov, QueueDepth: 1})
	req := testRequest(t, s.Catalog(), 5400)
	busyDone := make(chan error, 1)
	go func() {
		_, err := s.Plan(context.Background(), req)
		busyDone <- err
	}()
	<-prov.inflight

	j := journal.New(16, journal.Deterministic())
	rejected := req
	rejected.Journal = journal.Bind(j, "test", "trace-rejected", "")
	if _, err := s.Plan(context.Background(), rejected); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overloaded request error = %v, want ErrOverloaded", err)
	}
	if events := j.Since(0); len(events) != 1 || events[0].Type != journal.PlanRejected ||
		events[0].Trace != "trace-rejected" || !slices.Equal(events[0].Fields, []journal.Field{journal.F("reason", "overloaded")}) {
		t.Errorf("rejected request journaled %v, want one plan.rejected for trace-rejected, reason overloaded", events)
	}
	if st := s.Stats(); st.Overloaded != 1 || st.Requests != 2 {
		t.Errorf("stats = %+v, want two requests, one overloaded", st)
	}
	close(prov.release)
	if err := <-busyDone; err != nil {
		t.Fatalf("admitted request failed: %v", err)
	}
	// The slot is free again.
	if _, err := s.Plan(context.Background(), req); err != nil {
		t.Fatalf("request after the slot freed: %v", err)
	}
	if got := prov.searches.Load(); got != 2 {
		t.Errorf("%d searches ran, want 2 (the rejected request runs none)", got)
	}
}

// TestSearchGetsRequestContext: the search runs under the request's own
// context, so a request whose caller has gone stops its scan, and the
// search is counted as canceled, not as failed.
func TestSearchGetsRequestContext(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestService(t, Config{Registry: reg})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Plan(ctx, testRequest(t, s.Catalog(), 5400)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled request error = %v, want context.Canceled", err)
	}
	if st := s.Stats(); st != (Stats{Requests: 1, Canceled: 1}) {
		t.Errorf("stats = %+v, want one canceled search", st)
	}
	outcomes := reg.CounterVec("cynthia_plansvc_requests_total", "", "outcome")
	if c, e := outcomes.With("canceled").Value(), outcomes.With("error").Value(); c != 1 || e != 0 {
		t.Errorf("requests_total{outcome=canceled} = %d, {outcome=error} = %d, want 1 and 0", c, e)
	}
}

// panicOnce panics in its first search, as a buggy Provisioner would, and
// delegates to the engine after that.
type panicOnce struct{ fired atomic.Bool }

func (p *panicOnce) Search(ctx context.Context, req plan.Request) (plan.Result, error) {
	if !p.fired.Swap(true) {
		panic("provisioner bug")
	}
	return plan.DefaultEngine.Search(ctx, req)
}

func (p *panicOnce) Candidates(ctx context.Context, req plan.Request) ([]plan.Plan, error) {
	return plan.DefaultEngine.Candidates(ctx, req)
}

// TestPanickingSearchReleasesKey: net/http recovers a handler's panic, so
// a search that panics on the request's goroutine must still free its
// admission slot, or with QueueDepth 1 every later request would be
// rejected for good.
func TestPanickingSearchReleasesKey(t *testing.T) {
	s := newTestService(t, Config{Provisioner: &panicOnce{}, QueueDepth: 1})
	req := testRequest(t, s.Catalog(), 5400)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("the provisioner's panic did not reach the caller")
			}
		}()
		s.Plan(context.Background(), req)
	}()
	if _, err := s.Plan(context.Background(), req); err != nil {
		t.Fatalf("request after the panic: %v", err)
	}
	if st := s.Stats(); st.Errors != 1 || st.Searches != 1 {
		t.Errorf("stats = %+v, want one failed and one completed search", st)
	}
}

// TestSearchErrorsAreNotCached: a failing question searches, and fails,
// every time it is asked.
func TestSearchErrorsAreNotCached(t *testing.T) {
	s := newTestService(t, Config{})
	bad := testRequest(t, s.Catalog(), 5400)
	bad.Goal.LossTarget = 0.0000001 // below the loss asymptote: no candidates anywhere
	for range 2 {
		if _, err := s.Plan(context.Background(), bad); err == nil {
			t.Fatal("expected a planning error")
		}
	}
	if st := s.Stats(); st != (Stats{Requests: 2, Errors: 2}) {
		t.Errorf("stats = %+v, want two requests, both failed searches", st)
	}
}

func TestClosedServiceRejects(t *testing.T) {
	s := New(Config{Registry: obs.NewRegistry()})
	req := testRequest(t, s.Catalog(), 5400)
	if _, err := s.Plan(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if _, err := s.Plan(context.Background(), req); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close error = %v, want ErrClosed", err)
	}
}

// TestCacheHitJournalEvents pins the flight-recorder contract of a quote:
// every request journals exactly the engine's plan.search.start and
// plan.search.done, under its own trace ID, and the service adds nothing.
func TestCacheHitJournalEvents(t *testing.T) {
	j := journal.New(256, journal.Deterministic())
	s := newTestService(t, Config{})
	req := testRequest(t, s.Catalog(), 5400)
	for _, trace := range []string{"trace-a", "trace-b"} {
		req.Journal = journal.Bind(j, "test", trace, "")
		mark := len(j.Since(0))
		if _, err := s.Plan(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range j.Since(0)[mark:] {
			got = append(got, string(e.Type)+"@"+e.Trace)
		}
		want := []string{"plan.search.start@" + trace, "plan.search.done@" + trace}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("quote journaled %v, want %v", got, want)
		}
	}
}

// TestHitPathDoesNotAllocate pins that answering a quote with an unbound
// journal allocates nothing: admission, the early-break search and the
// release alike.
func TestHitPathDoesNotAllocate(t *testing.T) {
	s := newTestService(t, Config{})
	req := testRequest(t, s.Catalog(), 5400)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := s.Plan(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Service.Plan allocates %.1f times per op, want 0", allocs)
	}
}

// TestConcurrentMixedTraffic hammers one service from many goroutines
// with a skewed mix of questions under -race: every answer is what a
// direct Search returns, and every admitted request runs its own search.
func TestConcurrentMixedTraffic(t *testing.T) {
	prov := &countingProvisioner{}
	s := newTestService(t, Config{Provisioner: prov, QueueDepth: 1024})
	deadlines := []float64{5400, 5400, 5400, 5400, 3600, 3600, 1800, 900}
	// Requests and their answers are built on the test goroutine: the
	// helpers may t.Fatal.
	reqs := make([]plan.Request, len(deadlines))
	wants := make([]plan.Result, len(deadlines))
	for i, d := range deadlines {
		reqs[i] = testRequest(t, s.Catalog(), d)
		wants[i] = direct(t, reqs[i])
	}
	const goroutines = 8
	const perG = 20

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := (g + i) % len(reqs)
				got, err := s.Plan(context.Background(), reqs[k])
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if got != wants[k] {
					t.Errorf("deadline %.0f = %+v, a direct search returns %+v", deadlines[k], got, wants[k])
				}
			}
		}(g)
	}
	wg.Wait()
	st := s.Stats()
	if st.Requests != goroutines*perG || st.Searches != st.Requests {
		t.Errorf("stats = %+v, want %d requests, each searched", st, goroutines*perG)
	}
	if got := prov.searches.Load(); got != goroutines*perG {
		t.Errorf("provisioner ran %d searches, want %d", got, goroutines*perG)
	}
}

// TestServiceStatsString: two services on two registries keep their own
// stats and metrics.
func TestServiceStatsString(t *testing.T) {
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	a := newTestService(t, Config{Registry: regA})
	b := newTestService(t, Config{Registry: regB})
	if _, err := a.Plan(context.Background(), testRequest(t, a.Catalog(), 5400)); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if _, err := b.Plan(context.Background(), testRequest(t, b.Catalog(), 5400)); err != nil {
			t.Fatal(err)
		}
	}
	if a.Stats().Searches != 1 || b.Stats().Searches != 2 {
		t.Errorf("per-service stats bled across instances: %+v, %+v", a.Stats(), b.Stats())
	}
	for reg, want := range map[*obs.Registry]int64{regA: 1, regB: 2} {
		ok := reg.CounterVec("cynthia_plansvc_requests_total", "", "outcome").With("ok")
		if ok.Value() != want {
			t.Errorf("requests_total{outcome=ok} = %d, want %d", ok.Value(), want)
		}
	}
	_ = fmt.Sprintf("%+v", a.Stats()) // Stats must be printable
}

// TestInflightGaugeTracksSearches: the searches_inflight gauge counts
// the searches running and returns to zero once they have all returned.
func TestInflightGaugeTracksSearches(t *testing.T) {
	prov := &countingProvisioner{release: make(chan struct{}), inflight: make(chan struct{}, 4)}
	reg := obs.NewRegistry()
	s := newTestService(t, Config{Provisioner: prov, QueueDepth: 4, Registry: reg})
	req := testRequest(t, s.Catalog(), 5400)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.Plan(context.Background(), req); err != nil {
				t.Error(err)
			}
		}()
	}
	for range 4 {
		<-prov.inflight
	}
	gauge := reg.Gauge("cynthia_plansvc_searches_inflight", "")
	if gauge.Value() != 4 {
		t.Errorf("searches_inflight = %v with 4 stalled searches", gauge.Value())
	}
	close(prov.release)
	wg.Wait()
	if gauge.Value() != 0 {
		t.Errorf("searches_inflight = %v after every search returned", gauge.Value())
	}
}

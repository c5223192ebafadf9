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
	"time"

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

func TestPlanMissThenHit(t *testing.T) {
	s := newTestService(t, Config{})
	req := testRequest(t, s.Catalog(), 5400)

	first, err := s.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Outcome != OutcomeMiss {
		t.Fatalf("first request outcome = %s, want miss", first.Outcome)
	}
	if first.Stats.Enumerated == 0 {
		t.Fatal("miss ran no Theorem 4.1 evaluations")
	}

	second, err := s.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Outcome != OutcomeHit {
		t.Fatalf("second request outcome = %s, want hit", second.Outcome)
	}
	if !reflect.DeepEqual(first.Plan, second.Plan) {
		t.Errorf("cached plan differs from cold search:\n  cold %+v\n  hit  %+v", first.Plan, second.Plan)
	}
	if second.Stats != (plan.SearchStats{}) {
		t.Errorf("hit reports search work %+v, want none", second.Stats)
	}
	// The cached plan is one of the engine's candidates for the same
	// question, and the miss counted what the engine's own search
	// evaluates, never more than the candidates there are.
	ranked, err := plan.DefaultEngine.Candidates(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(ranked, second.Plan) || first.Stats.Enumerated > len(ranked) {
		t.Errorf("cached plan among %d candidates: %v; the miss counted %d",
			len(ranked), slices.Contains(ranked, second.Plan), first.Stats.Enumerated)
	}
	direct, err := plan.DefaultEngine.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Stats != direct.Stats {
		t.Errorf("miss stats %+v, a direct search counts %+v", first.Stats, direct.Stats)
	}
	st := s.Stats()
	if st.Searches != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want exactly one search, one hit, one miss", st)
	}

	// A cold search for the same question on a fresh service must agree
	// bit for bit with both.
	fresh := newTestService(t, Config{Catalog: s.Catalog()})
	cold, err := fresh.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold.Plan, second.Plan) {
		t.Errorf("hit differs from independent cold search:\n  cold %+v\n  hit  %+v", cold.Plan, second.Plan)
	}
}

func TestDistinctGoalsDistinctEntries(t *testing.T) {
	s := newTestService(t, Config{})
	a, err := s.Plan(context.Background(), testRequest(t, s.Catalog(), 5400))
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Plan(context.Background(), testRequest(t, s.Catalog(), 3600))
	if err != nil {
		t.Fatal(err)
	}
	if a.Outcome != OutcomeMiss || b.Outcome != OutcomeMiss {
		t.Fatalf("outcomes = %s, %s; want two misses", a.Outcome, b.Outcome)
	}
	if a.Key == b.Key {
		t.Errorf("distinct goals share cache key %v", a.Key)
	}
}

// TestNormalizedRequestsShareEntries pins the dedup property: a request
// relying on the default predictor and catalog and one spelling them out
// ask the same question, so the second is a hit.
func TestNormalizedRequestsShareEntries(t *testing.T) {
	s := newTestService(t, Config{})
	implicit := testRequest(t, s.Catalog(), 5400)
	implicit.Catalog = nil
	explicit := implicit
	explicit.Catalog = s.Catalog()
	explicit.Predictor = perf.Cynthia{}

	if _, err := s.Plan(context.Background(), implicit); err != nil {
		t.Fatal(err)
	}
	resp, err := s.Plan(context.Background(), explicit)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Outcome != OutcomeHit {
		t.Errorf("explicitly-defaulted request outcome = %s, want hit", resp.Outcome)
	}
}

func TestEpochBumpInvalidates(t *testing.T) {
	catalog := cloud.DefaultCatalog()
	s := newTestService(t, Config{Catalog: catalog})
	req := testRequest(t, catalog, 5400)

	first, err := s.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// Make the chosen type wildly expensive: the cached answer is stale.
	if err := catalog.SetPrice(first.Plan.Type.Name, first.Plan.Type.PricePerHour*100); err != nil {
		t.Fatal(err)
	}
	second, err := s.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Outcome != OutcomeMiss {
		t.Fatalf("post-mutation outcome = %s, want miss", second.Outcome)
	}
	if second.Key.Epoch == first.Key.Epoch {
		t.Error("epoch did not change across a price mutation")
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

func TestCoalescingRunsOneSearch(t *testing.T) {
	prov := &countingProvisioner{
		release:  make(chan struct{}),
		inflight: make(chan struct{}, 1),
	}
	s := newTestService(t, Config{Provisioner: prov})
	req := testRequest(t, s.Catalog(), 5400)

	const clients = 16
	var wg sync.WaitGroup
	results := make([]Response, clients)
	errs := make([]error, clients)
	start := func(i int) {
		defer wg.Done()
		results[i], errs[i] = s.Plan(context.Background(), req)
	}
	wg.Add(1)
	go start(0)
	<-prov.inflight // the first search is now in flight and stalled
	for i := 1; i < clients; i++ {
		wg.Add(1)
		go start(i)
	}
	// Wait until the stragglers have coalesced, then let the search go.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if s.Stats().Coalesced == clients-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("coalesced = %d, want %d", s.Stats().Coalesced, clients-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(prov.release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if got := prov.searches.Load(); got != 1 {
		t.Fatalf("%d concurrent identical requests ran %d searches, want 1", clients, got)
	}
	for i := 1; i < clients; i++ {
		if !reflect.DeepEqual(results[0].Plan, results[i].Plan) {
			t.Fatalf("coalesced client %d got a different plan", i)
		}
	}
}

// TestOverloadRejects: with QueueDepth fresh searches in flight, one more
// distinct question is rejected at once, while an identical one coalesces
// onto the running search instead of taking a slot.
func TestOverloadRejects(t *testing.T) {
	prov := &countingProvisioner{
		release:  make(chan struct{}),
		inflight: make(chan struct{}, 1),
	}
	s := newTestService(t, Config{Provisioner: prov, QueueDepth: 1})
	// Hold the single in-flight slot with a stalled search.
	busy := testRequest(t, s.Catalog(), 5400)
	busyDone := make(chan error, 2)
	ask := func() {
		_, err := s.Plan(context.Background(), busy)
		busyDone <- err
	}
	go ask()
	<-prov.inflight
	go ask()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Coalesced != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("identical request did not coalesce: stats %+v", s.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	// A distinct question must be rejected, not queued.
	_, err := s.Plan(context.Background(), testRequest(t, s.Catalog(), 3600))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overloaded request error = %v, want ErrOverloaded", err)
	}
	if st := s.Stats(); st.Overloaded != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want one miss and one overloaded", st)
	}
	close(prov.release)
	for range 2 {
		if err := <-busyDone; err != nil {
			t.Fatalf("admitted request failed: %v", err)
		}
	}
	// The slot is free again.
	if _, err := s.Plan(context.Background(), testRequest(t, s.Catalog(), 3600)); err != nil {
		t.Fatalf("request after the slot freed: %v", err)
	}
}

func TestWaiterContextCancellation(t *testing.T) {
	prov := &countingProvisioner{
		release:  make(chan struct{}),
		inflight: make(chan struct{}, 1),
	}
	s := newTestService(t, Config{Provisioner: prov})
	req := testRequest(t, s.Catalog(), 5400)
	go s.Plan(context.Background(), req)
	<-prov.inflight

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Plan(ctx, req)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter error = %v, want context.Canceled", err)
	}
	close(prov.release)
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
// a search that panics on the request's goroutine must still publish an
// error and free its admission slot, or every later identical request
// would wait on it for good and the slot would stay taken.
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
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	resp, err := s.Plan(ctx, req)
	if err != nil {
		t.Fatalf("request after the panic: %v", err)
	}
	if resp.Outcome != OutcomeMiss {
		t.Errorf("request after the panic was served as %s, want a fresh miss", resp.Outcome)
	}
	if st := s.Stats(); st.Errors != 1 || st.Searches != 1 {
		t.Errorf("stats = %+v, want one failed and one completed search", st)
	}
}

func TestSearchErrorsAreNotCached(t *testing.T) {
	s := newTestService(t, Config{})
	bad := testRequest(t, s.Catalog(), 5400)
	bad.Goal.LossTarget = 0.0000001 // below the loss asymptote: no candidates anywhere
	if _, err := s.Plan(context.Background(), bad); err == nil {
		t.Fatal("expected a planning error")
	}
	st := s.Stats()
	if st.CacheSize != 0 {
		t.Errorf("error result was cached: %+v", st)
	}
	// The same request searches again (and fails again) instead of
	// serving the cached failure.
	if _, err := s.Plan(context.Background(), bad); err == nil {
		t.Fatal("expected a planning error on retry")
	}
	if got := s.Stats().Errors; got != 2 {
		t.Errorf("errors = %d, want 2 (no error caching)", got)
	}
}

func TestLRUEviction(t *testing.T) {
	s := newTestService(t, Config{CacheCapacity: 2})
	deadlines := []float64{5400, 3600, 1800}
	for _, d := range deadlines {
		if _, err := s.Plan(context.Background(), testRequest(t, s.Catalog(), d)); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.CacheSize != 2 || st.Evictions != 1 {
		t.Fatalf("stats after 3 inserts into capacity 2 = %+v", st)
	}
	// The oldest entry (5400) was evicted; re-asking searches again.
	resp, err := s.Plan(context.Background(), testRequest(t, s.Catalog(), 5400))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Outcome != OutcomeMiss {
		t.Errorf("evicted entry served a %s, want miss", resp.Outcome)
	}
	// The most recently used (1800) is still cached.
	resp, err = s.Plan(context.Background(), testRequest(t, s.Catalog(), 1800))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Outcome != OutcomeHit {
		t.Errorf("recent entry served a %s, want hit", resp.Outcome)
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

// TestCacheHitJournalEvents pins the flight-recorder contract: a miss
// emits plan.cache.miss, then the engine's plan.search.start and, last,
// plan.search.done; a hit emits plan.cache.hit and NOTHING from the
// engine — the proof the cached path does zero Theorem 4.1 evaluations.
func TestCacheHitJournalEvents(t *testing.T) {
	j := journal.New(256, journal.Deterministic())
	s := newTestService(t, Config{})
	req := testRequest(t, s.Catalog(), 5400)
	req.Journal = journal.Bind(j, "test", "trace-miss", "")
	if _, err := s.Plan(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	missEvents := j.Since(0)
	var order []string
	for _, e := range missEvents {
		if typ := string(e.Type); typ == "plan.cache.miss" || typ == "plan.search.start" || typ == "plan.search.done" {
			order = append(order, typ)
		}
	}
	if want := []string{"plan.cache.miss", "plan.search.start", "plan.search.done"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("miss journal order = %v, want %v", order, want)
	}
	before := j.Len()
	mark := lastSeq(t, j)

	req.Journal = journal.Bind(j, "test", "trace-hit", "")
	resp, err := s.Plan(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Outcome != OutcomeHit {
		t.Fatalf("outcome = %s, want hit", resp.Outcome)
	}
	hitEvents := typeSet(j.Since(mark))
	if !hitEvents["plan.cache.hit"] {
		t.Fatalf("hit journal types = %v, want plan.cache.hit", hitEvents)
	}
	for typ := range hitEvents {
		if typ != "plan.cache.hit" {
			t.Errorf("cache hit emitted %s — the hit path must not run the engine", typ)
		}
	}
	if j.Len() != before+1 {
		t.Errorf("hit appended %d events, want exactly 1", j.Len()-before)
	}
}

func typeSet(events []journal.Event) map[string]bool {
	out := make(map[string]bool)
	for _, e := range events {
		out[string(e.Type)] = true
	}
	return out
}

func lastSeq(t *testing.T, j *journal.Journal) uint64 {
	t.Helper()
	events := j.Since(0)
	if len(events) == 0 {
		t.Fatal("empty journal")
	}
	return events[len(events)-1].Seq
}

// TestHitPathDoesNotAllocate pins the tentpole zero-alloc property: once
// a question is cached, answering it again allocates nothing.
func TestHitPathDoesNotAllocate(t *testing.T) {
	s := newTestService(t, Config{})
	req := testRequest(t, s.Catalog(), 5400)
	ctx := context.Background()
	if _, err := s.Plan(ctx, req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		resp, err := s.Plan(ctx, req)
		if err != nil || resp.Outcome != OutcomeHit {
			t.Fatalf("hit failed: %v %s", err, resp.Outcome)
		}
	})
	if allocs != 0 {
		t.Errorf("cache hit allocates %.1f times per op, want 0", allocs)
	}
}

// TestConcurrentMixedTraffic hammers one service from many goroutines
// with a skewed mix of questions under -race: every answer for the same
// key must be identical, and searches never exceed distinct keys.
func TestConcurrentMixedTraffic(t *testing.T) {
	prov := &countingProvisioner{}
	s := newTestService(t, Config{Provisioner: prov, QueueDepth: 1024})
	deadlines := []float64{5400, 5400, 5400, 5400, 3600, 3600, 1800, 900}
	// Requests are built on the test goroutine: the helpers may t.Fatal.
	reqs := make([]plan.Request, len(deadlines))
	for i, d := range deadlines {
		reqs[i] = testRequest(t, s.Catalog(), d)
	}
	const goroutines = 8
	const perG = 20

	var mu sync.Mutex
	byKey := make(map[Key]plan.Plan)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				resp, err := s.Plan(context.Background(), reqs[(g+i)%len(reqs)])
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				mu.Lock()
				if prev, ok := byKey[resp.Key]; ok {
					if !reflect.DeepEqual(prev, resp.Plan) {
						t.Errorf("key %v served two different plans", resp.Key)
					}
				} else {
					byKey[resp.Key] = resp.Plan
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	distinct := 4 // distinct deadlines
	if got := prov.searches.Load(); got > int64(distinct) {
		t.Errorf("%d searches for %d distinct questions — coalescing/caching leak", got, distinct)
	}
	st := s.Stats()
	if st.Requests != goroutines*perG {
		t.Errorf("requests = %d, want %d", st.Requests, goroutines*perG)
	}
	if st.Hits+st.Misses+st.Coalesced != st.Requests {
		t.Errorf("outcome counts %+v do not add up to requests", st)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	catalog := cloud.DefaultCatalog()
	base := testRequest(t, catalog, 5400)
	nbase, err := base.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	fp := Fingerprint(nbase)
	mutations := []struct {
		name string
		mut  func(r *plan.Request)
	}{
		{"deadline", func(r *plan.Request) { r.Goal.TimeSec = 5401 }},
		{"loss target", func(r *plan.Request) { r.Goal.LossTarget = 0.81 }},
		{"workload", func(r *plan.Request) { r.Profile = testProfile(t, "mnist DNN", catalog) }},
		{"sync mode", func(r *plan.Request) {
			p := *r.Profile
			p.Workload = p.Workload.WithSync(model.ASP)
			r.Profile = &p
		}},
	}
	for _, m := range mutations {
		r := base
		m.mut(&r)
		nr, err := r.Normalize()
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		if Fingerprint(nr) == fp {
			t.Errorf("changing %s did not change the fingerprint", m.name)
		}
	}
	// Determinism: same inputs, same fingerprint.
	again, err := testRequest(t, catalog, 5400).Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(again) != fp {
		t.Error("fingerprint is not deterministic for identical requests")
	}
}

func TestKeyString(t *testing.T) {
	k := Key{CatalogID: 3, Epoch: 7, Fingerprint: 0xdeadbeef}
	want := "c3.e7.fdeadbeef"
	if got := k.String(); got != want {
		t.Errorf("Key.String() = %q, want %q", got, want)
	}
}

func TestServiceStatsString(t *testing.T) {
	// Exercise the metrics wiring: two registries must not collide.
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	a := newTestService(t, Config{Registry: regA})
	b := newTestService(t, Config{Registry: regB})
	if _, err := a.Plan(context.Background(), testRequest(t, a.Catalog(), 5400)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Plan(context.Background(), testRequest(t, b.Catalog(), 5400)); err != nil {
		t.Fatal(err)
	}
	if a.Stats().Misses != 1 || b.Stats().Misses != 1 {
		t.Error("per-service stats bled across instances")
	}
	_ = fmt.Sprintf("%+v", a.Stats()) // Stats must be printable
}

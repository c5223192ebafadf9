package cluster

// HTTP-level tests for the plan service endpoint and async submission:
// the quote path (answers equal a direct search, on the default catalog
// and on a repriced one), the admission edges (429 + Retry-After from
// both the plan service and the job queue), and a mixed read/write
// storm that -race keeps honest.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"cynthia/internal/cloud"
	"cynthia/internal/model"
	"cynthia/internal/obs"
	"cynthia/internal/plan"
	"cynthia/internal/plan/service"
)

func planBody(deadline float64) string {
	return fmt.Sprintf(`{"workload": "cifar10 DNN", "deadline_sec": %g, "loss_target": 0.8}`, deadline)
}

// directQuote is the plan a direct Search returns for planBody(deadline)
// against the API's controller: the answer a quote must serve.
func directQuote(t *testing.T, api *API, deadline float64) plan.Result {
	t.Helper()
	w, err := model.WorkloadByName("cifar10 DNN")
	if err != nil {
		t.Fatal(err)
	}
	req, err := api.controller.PlanRequest(w, plan.Goal{TimeSec: deadline, LossTarget: 0.8}, "")
	if err != nil {
		t.Fatal(err)
	}
	res, err := plan.DefaultEngine.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameQuote reports how a decoded PlanResponse differs from want, or "".
func sameQuote(out map[string]any, want plan.Result) string {
	p := want.Plan
	got := fmt.Sprint(out["instance_type"], out["workers"], out["ps"], out["iterations"], out["predicted_sec"], out["cost_usd"], out["feasible"])
	if exp := fmt.Sprint(p.Type.Name, float64(p.Workers), float64(p.PS), float64(p.Iterations), p.PredTime, p.Cost, p.Feasible); got != exp {
		return fmt.Sprintf("quote %s, a direct search plans %s", got, exp)
	}
	return ""
}

// TestPlanEndpointMissThenHit: every quote runs a search, so asking twice
// answers twice with the direct search's plan and its real search counts,
// and the reply carries nothing about a cache.
func TestPlanEndpointMissThenHit(t *testing.T) {
	api, _ := newTestAPI(t)
	h := api.Handler()
	want := directQuote(t, api, 7200)
	for i := range 2 {
		rec, out := doJSON(t, h, "POST", "/api/plan", planBody(7200))
		if rec.Code != http.StatusOK {
			t.Fatalf("plan = %d: %s", rec.Code, rec.Body.String())
		}
		if diff := sameQuote(out, want); diff != "" {
			t.Errorf("quote %d: %s", i, diff)
		}
		if got := out["search_stats"].(map[string]any)["enumerated"].(float64); int(got) != want.Stats.Enumerated || got == 0 {
			t.Errorf("quote %d enumerated %v, a direct search %d", i, got, want.Stats.Enumerated)
		}
		for _, k := range []string{"cache", "key", "service"} {
			if _, ok := out[k]; ok {
				t.Errorf("quote %d carries %q", i, k)
			}
		}
		if rec.Header().Get("X-Cache") != "" {
			t.Errorf("quote %d sent an X-Cache header", i)
		}
	}
	if got := api.PlanService().Stats().Searches; got != 2 {
		t.Errorf("two quotes ran %d searches", got)
	}
	// Nothing was provisioned for either quote.
	if strings.TrimSpace(doBody(t, h, "GET", "/api/nodes")) != "[]" {
		t.Error("quote provisioned nodes")
	}
	if jobs := strings.TrimSpace(doBody(t, h, "GET", "/api/jobs")); jobs != "[]" {
		t.Errorf("quote registered a job: %s", jobs)
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestPlanHitPathAllocs pins what a quote allocates end to end through
// API.Handler(): routing, the body decode, the workload lookup, the
// search behind the plan service's admission, the journal events and the
// JSON response. The request and recorder are built inside the measured
// closure, as a server builds them per request. Lower the measured count
// whenever a change lowers it.
func TestPlanHitPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are randomized under the race detector (see race_test.go)")
	}
	api, _ := newTestAPI(t)
	h := api.Handler()
	body := planBody(7200)
	if rec, _ := doJSON(t, h, "POST", "/api/plan", body); rec.Code != http.StatusOK {
		t.Fatalf("plan = %d: %s", rec.Code, rec.Body.String())
	}
	allocs := testing.AllocsPerRun(200, func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/plan", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("quote = %d", rec.Code)
		}
	})
	const measured = 43.0
	ceiling := measured*1.001 + 0.5
	t.Logf("POST /api/plan: %.0f allocs, ceiling %.1f", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("POST /api/plan allocates %.0f objects, above its ceiling %.1f", allocs, ceiling)
	}
}

func doBody(t *testing.T, h http.Handler, method, path string) string {
	t.Helper()
	rec, _ := doJSON(t, h, method, path, "")
	return rec.Body.String()
}

func TestPlanEndpointValidationAndFailure(t *testing.T) {
	api, _ := newTestAPI(t)
	h := api.Handler()
	rec, _ := doJSON(t, h, "POST", "/api/plan", `not json`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad body = %d", rec.Code)
	}
	rec, out := doJSON(t, h, "POST", "/api/plan",
		`{"workload": "VGG-19", "deadline_sec": 3600, "loss_target": 0.1}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("unreachable loss = %d: %s", rec.Code, rec.Body.String())
	}
	if out["error"] == "" {
		t.Errorf("no error detail: %v", out)
	}
}

// repricedAPI builds a test API on a copy of base with the named type at
// the given hourly price. A catalog is immutable, so a price change is a
// provider built on a new catalog.
func repricedAPI(t *testing.T, base *cloud.Catalog, name string, price float64) *API {
	t.Helper()
	types := slices.Clone(base.Types())
	for i := range types {
		if types[i].Name == name {
			types[i].PricePerHour = price
		}
	}
	catalog, err := cloud.NewCatalog(types...)
	if err != nil {
		t.Fatal(err)
	}
	api, _ := newTestAPIOn(t, catalog)
	return api
}

// TestPlanAtNewPriceOverHTTP: a quote from a provider built on a catalog
// at a new price equals a direct search on that catalog, and reacts to
// the price.
func TestPlanAtNewPriceOverHTTP(t *testing.T) {
	api, provider := newTestAPI(t)
	rec, before := doJSON(t, api.Handler(), "POST", "/api/plan", planBody(7200))
	if rec.Code != http.StatusOK {
		t.Fatalf("plan = %d", rec.Code)
	}
	repriced := repricedAPI(t, provider.Catalog(), before["instance_type"].(string), 99)
	rec, after := doJSON(t, repriced.Handler(), "POST", "/api/plan", planBody(7200))
	if rec.Code != http.StatusOK {
		t.Fatalf("plan = %d", rec.Code)
	}
	if diff := sameQuote(after, directQuote(t, repriced, 7200)); diff != "" {
		t.Errorf("at the new price: %s", diff)
	}
	if after["instance_type"] == before["instance_type"] && after["cost_usd"] == before["cost_usd"] {
		t.Errorf("quote did not react to repricing %v at $99/h: %v", before["instance_type"], after)
	}
}

// stallingProvisioner blocks every search until released, so admission
// tests can hold searches in flight deterministically.
type stallingProvisioner struct {
	started chan struct{} // receives one token per search that began
	release chan struct{} // close to let every search return
}

func (p *stallingProvisioner) Search(ctx context.Context, req plan.Request) (plan.Result, error) {
	select {
	case p.started <- struct{}{}:
	default:
	}
	<-p.release
	return plan.Result{}, fmt.Errorf("stalling provisioner: released without a plan")
}

func (p *stallingProvisioner) Candidates(ctx context.Context, req plan.Request) ([]plan.Plan, error) {
	return nil, fmt.Errorf("stalling provisioner: no candidates")
}

func TestPlanOverloadReturns429(t *testing.T) {
	master := newMaster(t)
	provider := cloud.NewProvider(cloud.DefaultCatalog(), nil)
	controller := NewController(master, provider, nil, "")
	sp := &stallingProvisioner{started: make(chan struct{}, 8), release: make(chan struct{})}
	svc := service.New(service.Config{
		Provisioner: sp, Catalog: provider.Catalog(),
		QueueDepth: 1, Registry: obs.NewRegistry(),
	})
	api := NewAPI(master, controller, WithPlanService(svc))
	h := api.Handler()

	// The first question holds the only in-flight search slot.
	var wg sync.WaitGroup
	var relOnce sync.Once
	release := func() { relOnce.Do(func() { close(sp.release) }) }
	t.Cleanup(func() { release(); wg.Wait(); svc.Close() })
	post := func(d float64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			doJSON(t, h, "POST", "/api/plan", planBody(d))
		}()
	}
	post(1000)
	<-sp.started

	rec, _ := doJSON(t, h, "POST", "/api/plan", planBody(2000))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded plan = %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// ctxProvisioner runs every search until its request's context ends and
// returns the context's error, as the engine's scan does when its caller
// gives up.
type ctxProvisioner struct{ started chan struct{} }

func (p *ctxProvisioner) Search(ctx context.Context, req plan.Request) (plan.Result, error) {
	p.started <- struct{}{}
	<-ctx.Done()
	return plan.Result{}, fmt.Errorf("plan: search stopped: %w", ctx.Err())
}

func (p *ctxProvisioner) Candidates(ctx context.Context, req plan.Request) ([]plan.Plan, error) {
	return nil, ctx.Err()
}

// TestPlanCanceledMidSearch: a quote whose caller goes away mid-search is
// counted as canceled, not as a failed search, and is not answered as an
// unprocessable question.
func TestPlanCanceledMidSearch(t *testing.T) {
	master := newMaster(t)
	provider := cloud.NewProvider(cloud.DefaultCatalog(), nil)
	controller := NewController(master, provider, nil, "")
	reg := obs.NewRegistry()
	cp := &ctxProvisioner{started: make(chan struct{}, 1)}
	svc := service.New(service.Config{Provisioner: cp, Catalog: provider.Catalog(), Registry: reg})
	api := NewAPI(master, controller, WithPlanService(svc))

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest("POST", "/api/plan", strings.NewReader(planBody(5400))).WithContext(ctx)
	rec := httptest.NewRecorder()
	served := make(chan struct{})
	go func() {
		defer close(served)
		api.Handler().ServeHTTP(rec, req)
	}()
	<-cp.started
	cancel()
	<-served
	if rec.Code == http.StatusUnprocessableEntity || rec.Body.Len() != 0 {
		t.Errorf("canceled quote answered %d: %q", rec.Code, rec.Body.String())
	}
	if st := svc.Stats(); st.Canceled != 1 || st.Errors != 0 {
		t.Errorf("stats = %+v, want one canceled search and no failed one", st)
	}
	outcomes := reg.CounterVec("cynthia_plansvc_requests_total", "", "outcome")
	if c, e := outcomes.With("canceled").Value(), outcomes.With("error").Value(); c != 1 || e != 0 {
		t.Errorf("requests_total{outcome=canceled} = %d, {outcome=error} = %d, want 1 and 0", c, e)
	}
}

// TestPlanAfterDrainReturns429: a drained API turns quotes away like
// job submissions, with 429 + Retry-After, not as unprocessable.
func TestPlanAfterDrainReturns429(t *testing.T) {
	api, _ := newTestAPI(t)
	if err := api.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	rec, _ := doJSON(t, api.Handler(), "POST", "/api/plan", planBody(7200))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("post-drain quote = %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAsyncSubmission(t *testing.T) {
	api, provider := newTestAPI(t)
	h := api.Handler()
	rec, out := doJSON(t, h, "POST", "/api/jobs?wait=false",
		`{"workload": "cifar10 DNN", "deadline_sec": 7200, "loss_target": 0.8}`)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async submit = %d: %s", rec.Code, rec.Body.String())
	}
	id, _ := out["id"].(string)
	if id == "" {
		t.Fatalf("202 without a job id: %v", out)
	}
	var last map[string]any
	waitFor(t, func() bool {
		_, last = doJSON(t, h, "GET", "/api/jobs/"+id, "")
		s, _ := last["status"].(string)
		switch JobStatus(s) {
		case StatusSucceeded, StatusMissedGoal, StatusFailed:
			return true
		}
		return false
	})
	if last["status"] != string(StatusSucceeded) {
		t.Errorf("async job finished %v: %v", last["status"], last)
	}
	// The status turns terminal before teardown releases the instances;
	// the job's done channel closes after it.
	if err := api.controller.Wait(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	if provider.RunningCount("") != 0 {
		t.Error("instances leaked")
	}

	rec, _ = doJSON(t, h, "POST", "/api/jobs?wait=banana", `{"workload": "mnist DNN", "deadline_sec": 100, "loss_target": 0.5}`)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad wait param = %d", rec.Code)
	}
}

func TestJobQueueFullReturns429(t *testing.T) {
	master := newMaster(t)
	provider := cloud.NewProvider(cloud.DefaultCatalog(), nil)
	controller := NewController(master, provider, nil, "")
	controller.QueueWorkers, controller.QueueDepth = 1, 1
	sp := &stallingProvisioner{started: make(chan struct{}, 8), release: make(chan struct{})}
	controller.UseProvisioner(sp)
	api := NewAPI(master, controller)
	h := api.Handler()
	var wg sync.WaitGroup
	var relOnce sync.Once
	release := func() { relOnce.Do(func() { close(sp.release) }) }
	t.Cleanup(func() { release(); wg.Wait(); _ = api.Drain(context.Background()) })

	// Job 1 occupies the only worker (stalled in its search); job 2
	// fills the queue; job 3 must be turned away at admission.
	body := `{"workload": "cifar10 DNN", "deadline_sec": 7200, "loss_target": 0.8}`
	wg.Add(1)
	go func() {
		defer wg.Done()
		doJSON(t, h, "POST", "/api/jobs", body)
	}()
	<-sp.started
	rec, _ := doJSON(t, h, "POST", "/api/jobs?wait=false", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("queued submit = %d: %s", rec.Code, rec.Body.String())
	}
	rec, _ = doJSON(t, h, "POST", "/api/jobs?wait=false", body)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit = %d: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	release()
	if err := api.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Draining closed admission for good.
	rec, _ = doJSON(t, h, "POST", "/api/jobs", body)
	if rec.Code != http.StatusTooManyRequests {
		t.Errorf("post-drain submit = %d", rec.Code)
	}
}

// failingWriter drops the connection after headers, like a client that
// went away mid-response.
type failingWriter struct{ h http.Header }

func (f *failingWriter) Header() http.Header       { return f.h }
func (f *failingWriter) WriteHeader(int)           {}
func (f *failingWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("client gone") }

func TestWriteFailuresAreCounted(t *testing.T) {
	before := writeErrorsCounter().Value()
	writeJSON(&failingWriter{h: http.Header{}}, http.StatusOK, map[string]string{"x": "y"})
	if got := writeErrorsCounter().Value(); got != before+1 {
		t.Errorf("write errors = %d, want %d", got, before+1)
	}
}

// TestPlanJobStorm mixes concurrent quotes and submissions through a
// live httptest server. Under -race this pins the locking discipline;
// the assertions pin that every quote serves the plan a direct search
// returns, that each runs its own search, and that a provider built on a
// repriced catalog quotes at the new price.
func TestPlanJobStorm(t *testing.T) {
	api, provider := newTestAPI(t)
	srv := httptest.NewServer(api.Handler())
	t.Cleanup(srv.Close)
	post := func(path, body string) (*http.Response, map[string]any, error) {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return resp, nil, err
		}
		return resp, out, nil
	}

	deadlines := []float64{5400, 7200, 9000}
	wants := make([]plan.Result, len(deadlines))
	for k, d := range deadlines {
		wants[k] = directQuote(t, api, d)
	}
	const clients, quotes = 12, 8
	var wg sync.WaitGroup
	errs := make(chan error, clients*16)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Every third client also submits a real job, async or sync.
			if i%3 == 0 {
				path := "/api/jobs?wait=false"
				if i%2 == 0 {
					path = "/api/jobs"
				}
				resp, out, err := post(path, planBody(7200))
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusAccepted {
					errs <- fmt.Errorf("job submit = %d: %v", resp.StatusCode, out)
					return
				}
			}
			for n := 0; n < quotes; n++ {
				k := (i + n) % len(deadlines)
				resp, out, err := post("/api/plan", planBody(deadlines[k]))
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("plan = %d: %v", resp.StatusCode, out)
					return
				}
				if diff := sameQuote(out, wants[k]); diff != "" {
					errs <- fmt.Errorf("deadline %.0f: %s", deadlines[k], diff)
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Every admitted quote ran its own search; job submissions plan in
	// the controller, not through the service.
	if st := api.PlanService().Stats(); st.Searches != clients*quotes || st.Requests != st.Searches {
		t.Errorf("service stats = %+v, want %d quotes, each searched", st, clients*quotes)
	}

	// A provider built on a repriced catalog quotes what a direct search
	// on that catalog returns.
	repriced := repricedAPI(t, provider.Catalog(), cloud.M4XLarge, 42)
	if rec, out := doJSON(t, repriced.Handler(), "POST", "/api/plan", planBody(5400)); rec.Code != http.StatusOK {
		t.Fatalf("plan at the new price = %d", rec.Code)
	} else if diff := sameQuote(out, directQuote(t, repriced, 5400)); diff != "" {
		t.Errorf("at the new price: %s", diff)
	}

	// Let submitted jobs finish and verify teardown. A job's done channel
	// closes after teardown; its status turns terminal before.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, j := range api.controller.Jobs() {
		if err := api.controller.Wait(ctx, j.ID); err != nil {
			t.Fatalf("job %s: %v", j.ID, err)
		}
	}
	if provider.RunningCount("") != 0 {
		t.Error("instances leaked after the storm")
	}
}

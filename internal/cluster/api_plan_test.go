package cluster

// HTTP-level tests for the plan service endpoint and async submission:
// the quote path (X-Cache semantics, epoch invalidation), the admission
// edges (429 + Retry-After from both the plan service and the job
// queue), and a mixed read/write storm that -race keeps honest.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cynthia/internal/cloud"
	"cynthia/internal/obs"
	"cynthia/internal/plan"
	"cynthia/internal/plan/service"
)

func planBody(deadline float64) string {
	return fmt.Sprintf(`{"workload": "cifar10 DNN", "deadline_sec": %g, "loss_target": 0.8}`, deadline)
}

func TestPlanEndpointMissThenHit(t *testing.T) {
	api, _ := newTestAPI(t)
	h := api.Handler()

	rec, miss := doJSON(t, h, "POST", "/api/plan", planBody(7200))
	if rec.Code != http.StatusOK {
		t.Fatalf("plan = %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("first X-Cache = %q, want miss", got)
	}
	if miss["instance_type"] == "" || miss["workers"].(float64) < 1 || miss["feasible"] != true {
		t.Errorf("plan fields: %v", miss)
	}
	if miss["search_stats"].(map[string]any)["enumerated"].(float64) == 0 {
		t.Errorf("miss reported no enumeration: %v", miss["search_stats"])
	}

	rec, hit := doJSON(t, h, "POST", "/api/plan", planBody(7200))
	if rec.Code != http.StatusOK {
		t.Fatalf("plan = %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("second X-Cache = %q, want hit", got)
	}
	// The cached answer is the same plan, served with zero Theorem 4.1
	// evaluations (all-zero search stats).
	for _, k := range []string{"instance_type", "workers", "ps", "iterations", "predicted_sec", "cost_usd", "key"} {
		if miss[k] != hit[k] {
			t.Errorf("%s: miss=%v hit=%v", k, miss[k], hit[k])
		}
	}
	if hit["search_stats"].(map[string]any)["enumerated"].(float64) != 0 {
		t.Errorf("hit reported search work: %v", hit["search_stats"])
	}
	if hit["service"].(map[string]any)["hits"].(float64) < 1 {
		t.Errorf("service stats missing the hit: %v", hit["service"])
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

// TestPlanHitPathAllocs pins what a cached quote allocates end to end
// through API.Handler(): routing, the body decode, the workload lookup,
// the plan service hit, and the JSON response. The request and recorder
// are built inside the measured closure, as a server builds them per
// request. Lower the measured count whenever a change lowers it.
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
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
			t.Fatalf("quote = %d, X-Cache %q", rec.Code, rec.Header().Get("X-Cache"))
		}
	})
	// The response and the journal each print the cache key, and strconv
	// formats a catalog ID under 100 without allocating; a test binary
	// that has built 100 catalogs pays one allocation more per print.
	measured := 41.0
	if api.controller.provider.Catalog().ID() >= 100 {
		measured += 2
	}
	ceiling := measured*1.001 + 0.5
	t.Logf("POST /api/plan hit: %.0f allocs, ceiling %.1f", allocs, ceiling)
	if allocs > ceiling {
		t.Errorf("POST /api/plan hit allocates %.0f objects, above its ceiling %.1f", allocs, ceiling)
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

func TestPlanEpochBumpInvalidatesOverHTTP(t *testing.T) {
	api, provider := newTestAPI(t)
	h := api.Handler()

	rec, before := doJSON(t, h, "POST", "/api/plan", planBody(7200))
	if rec.Code != http.StatusOK {
		t.Fatalf("plan = %d", rec.Code)
	}
	if err := provider.Catalog().SetPrice(cloud.M4XLarge, 99); err != nil {
		t.Fatal(err)
	}
	// A hit must never outlive a catalog mutation: the first quote after
	// the bump re-searches under a new key.
	rec, after := doJSON(t, h, "POST", "/api/plan", planBody(7200))
	if rec.Code != http.StatusOK {
		t.Fatalf("plan = %d", rec.Code)
	}
	if got := rec.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("post-bump X-Cache = %q, want miss", got)
	}
	if before["key"] == after["key"] {
		t.Errorf("cache key survived the epoch bump: %v", after["key"])
	}
	if after["search_stats"].(map[string]any)["enumerated"].(float64) == 0 {
		t.Error("post-bump quote did not re-search")
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
// the assertions pin that coalesced/cached quotes serve bit-identical
// plans and that a catalog mutation invalidates every live entry.
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
	const clients = 12
	var (
		mu      sync.Mutex
		plans   = map[string]string{} // cache key -> canonical plan JSON
		outcome = map[string]int{}
	)
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
			for n := 0; n < 8; n++ {
				d := deadlines[(i+n)%len(deadlines)]
				resp, out, err := post("/api/plan", planBody(d))
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("plan = %d: %v", resp.StatusCode, out)
					return
				}
				canon, _ := json.Marshal(map[string]any{
					"type": out["instance_type"], "workers": out["workers"], "ps": out["ps"],
					"iters": out["iterations"], "pred": out["predicted_sec"], "cost": out["cost_usd"],
				})
				key, _ := out["key"].(string)
				mu.Lock()
				if prev, ok := plans[key]; ok && prev != string(canon) {
					errs <- fmt.Errorf("key %s served two plans:\n%s\n%s", key, prev, canon)
				}
				plans[key] = string(canon)
				outcome[resp.Header.Get("X-Cache")]++
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if len(plans) != len(deadlines) {
		t.Errorf("distinct cache keys = %d, want %d", len(plans), len(deadlines))
	}
	if outcome["hit"] == 0 {
		t.Errorf("storm produced no cache hits: %v", outcome)
	}
	// The plan service searched once per distinct question, no matter
	// how many clients asked — everything else was a hit or coalesced.
	if got := api.PlanService().Stats().Searches; got != uint64(len(deadlines)) {
		t.Errorf("service searches = %d, want %d", got, len(deadlines))
	}

	// Epoch bump: no cached answer survives a price change.
	if err := provider.Catalog().SetPrice(cloud.M4XLarge, 42); err != nil {
		t.Fatal(err)
	}
	resp, out, err := post("/api/plan", planBody(5400))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Errorf("post-bump X-Cache = %q, want miss", resp.Header.Get("X-Cache"))
	}
	if _, seen := plans[out["key"].(string)]; seen {
		t.Errorf("post-bump key %v collides with a pre-bump entry", out["key"])
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

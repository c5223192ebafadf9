package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cynthia/internal/cloud"
)

func newTestAPI(t *testing.T) (*API, *cloud.Provider) {
	t.Helper()
	master := newMaster(t)
	provider := cloud.NewProvider(cloud.DefaultCatalog(), nil)
	controller := NewController(master, provider, nil, "")
	return NewAPI(master, controller), provider
}

func doJSON(t *testing.T, h http.Handler, method, path string, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var rdr *bytes.Reader
	if body != "" {
		rdr = bytes.NewReader([]byte(body))
	} else {
		rdr = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rdr)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var out map[string]any
	if rec.Body.Len() > 0 && strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			// Arrays decode separately in callers.
			out = nil
		}
	}
	return rec, out
}

func TestHealthz(t *testing.T) {
	api, _ := newTestAPI(t)
	rec, _ := doJSON(t, api.Handler(), "GET", "/healthz", "")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Errorf("healthz = %d %q", rec.Code, rec.Body.String())
	}
}

func TestEmptyListings(t *testing.T) {
	api, _ := newTestAPI(t)
	h := api.Handler()
	for _, path := range []string{"/api/nodes", "/api/pods", "/api/jobs"} {
		rec, _ := doJSON(t, h, "GET", path, "")
		if rec.Code != http.StatusOK {
			t.Errorf("%s = %d", path, rec.Code)
		}
		body := strings.TrimSpace(rec.Body.String())
		if body != "[]" {
			t.Errorf("%s body = %q, want []", path, body)
		}
	}
}

func TestSubmitJobLifecycle(t *testing.T) {
	api, provider := newTestAPI(t)
	h := api.Handler()
	rec, out := doJSON(t, h, "POST", "/api/jobs",
		`{"workload": "cifar10 DNN", "deadline_sec": 7200, "loss_target": 0.8}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body.String())
	}
	if out["status"] != "succeeded" {
		t.Fatalf("status = %v", out["status"])
	}
	if out["workers"].(float64) < 1 || out["instance_type"] == "" {
		t.Errorf("plan fields: %v", out)
	}
	if out["training_sec"].(float64) <= 0 || out["cost_usd"].(float64) <= 0 {
		t.Errorf("result fields: %v", out)
	}
	id := out["id"].(string)

	// Job retrievable by id.
	rec, out = doJSON(t, h, "GET", "/api/jobs/"+id, "")
	if rec.Code != http.StatusOK || out["id"] != id {
		t.Errorf("get job = %d %v", rec.Code, out)
	}
	// Listed.
	rec, _ = doJSON(t, h, "GET", "/api/jobs", "")
	if !strings.Contains(rec.Body.String(), id) {
		t.Errorf("job %s not listed: %s", id, rec.Body.String())
	}
	// Cluster torn down after the run.
	if provider.RunningCount("") != 0 {
		t.Error("instances leaked")
	}
	rec, _ = doJSON(t, h, "GET", "/api/nodes", "")
	if strings.TrimSpace(rec.Body.String()) != "[]" {
		t.Errorf("nodes leaked: %s", rec.Body.String())
	}
}

// TestSubmitValidation pins the decoder both POST routes share. A body is
// exactly one JSON object: anything but whitespace after it is 400. The
// unreachable-loss object decodes, so the planner answers it 422 without
// training anything.
func TestSubmitValidation(t *testing.T) {
	api, _ := newTestAPI(t)
	h := api.Handler()
	const unreachable = `{"workload": "VGG-19", "deadline_sec": 3600, "loss_target": 0.1}`
	cases := []struct {
		body string
		want int
	}{
		{`not json`, http.StatusBadRequest},
		{`{"unknown_field": 1}`, http.StatusBadRequest},
		{`{"workload": "", "deadline_sec": 100, "loss_target": 0.5}`, http.StatusBadRequest},
		{`{"workload": "NoSuchNet", "deadline_sec": 100, "loss_target": 0.5}`, http.StatusBadRequest},
		{`{"workload": "mnist DNN", "deadline_sec": 0, "loss_target": 0.5}`, http.StatusBadRequest},
		{`{"workload": "mnist DNN", "deadline_sec": 100, "loss_target": 0}`, http.StatusBadRequest},
		{unreachable, http.StatusUnprocessableEntity},
		{unreachable + "\n", http.StatusUnprocessableEntity},
		{unreachable + " \t\r\n ", http.StatusUnprocessableEntity},
		{unreachable + `garbage`, http.StatusBadRequest},
		{unreachable + `{"workload": "mnist DNN"}`, http.StatusBadRequest},
		{unreachable + `}`, http.StatusBadRequest},
		{unreachable + ` 1`, http.StatusBadRequest},
		{unreachable + strings.Repeat(" ", maxRequestBody), http.StatusRequestEntityTooLarge},
	}
	for _, path := range []string{"/api/jobs", "/api/plan"} {
		for _, c := range cases {
			rec, _ := doJSON(t, h, "POST", path, c.body)
			if rec.Code != c.want {
				t.Errorf("%s %.80q -> %d, want %d: %s", path, c.body, rec.Code, c.want, rec.Body.String())
			}
		}
	}
}

// TestOversizedBodyRejected pins the request-body bound: a 1 MiB body is
// 413 on both POST routes, and no job is registered.
func TestOversizedBodyRejected(t *testing.T) {
	api, _ := newTestAPI(t)
	h := api.Handler()
	body := `{"workload": "` + strings.Repeat("x", 1<<20) + `"}`
	for _, path := range []string{"/api/jobs", "/api/plan"} {
		rec, _ := doJSON(t, h, "POST", path, body)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s with a 1 MiB body = %d, want 413", path, rec.Code)
		}
	}
	if jobs := api.controller.Jobs(); len(jobs) != 0 {
		t.Errorf("oversized submission registered %d jobs", len(jobs))
	}
}

func TestSubmitUnreachableLossReturnsJobRecord(t *testing.T) {
	api, _ := newTestAPI(t)
	rec, out := doJSON(t, api.Handler(), "POST", "/api/jobs",
		`{"workload": "VGG-19", "deadline_sec": 3600, "loss_target": 0.1}`)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("code = %d", rec.Code)
	}
	if out["status"] != "failed" || out["error"] == "" {
		t.Errorf("failed job record = %v", out)
	}
}

func TestGetMissingJob(t *testing.T) {
	api, _ := newTestAPI(t)
	rec, _ := doJSON(t, api.Handler(), "GET", "/api/jobs/nope", "")
	if rec.Code != http.StatusNotFound {
		t.Errorf("code = %d", rec.Code)
	}
}

func TestPodsFilterByJobParam(t *testing.T) {
	api, _ := newTestAPI(t)
	// Schedule pods directly on the master to observe the filter.
	token, hash := api.master.JoinCredentials()
	if _, err := api.master.Join("n1", "i-1", m4(t), 4, token, hash); err != nil {
		t.Fatal(err)
	}
	if _, err := api.master.Schedule(PodSpec{Role: RoleWorker, Job: "alpha"}); err != nil {
		t.Fatal(err)
	}
	if _, err := api.master.Schedule(PodSpec{Role: RolePS, Job: "beta"}); err != nil {
		t.Fatal(err)
	}
	h := api.Handler()
	rec, _ := doJSON(t, h, "GET", "/api/pods?job=alpha", "")
	if !strings.Contains(rec.Body.String(), "alpha") || strings.Contains(rec.Body.String(), "beta") {
		t.Errorf("filtered pods = %s", rec.Body.String())
	}
	rec, _ = doJSON(t, h, "GET", "/api/nodes", "")
	if !strings.Contains(rec.Body.String(), `"free_cores":2`) {
		t.Errorf("nodes = %s", rec.Body.String())
	}
}

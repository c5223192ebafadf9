package main

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/cluster"
	"cynthia/internal/cluster/replay"
	"cynthia/internal/model"
	"cynthia/internal/obs/journal"
	"cynthia/internal/plan"
)

func newTestServer(t *testing.T, gpu bool) *httptest.Server {
	t.Helper()
	handler, _, _, _, _, err := setup(gpu, false, "")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	return srv
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

func TestHealthAndEmptyCluster(t *testing.T) {
	srv := newTestServer(t, false)
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: %s", resp.Status)
	}
	var nodes, jobs []map[string]any
	getJSON(t, srv.URL+"/api/nodes", &nodes)
	getJSON(t, srv.URL+"/api/jobs", &jobs)
	if len(nodes) != 0 || len(jobs) != 0 {
		t.Errorf("fresh master reports %d nodes, %d jobs", len(nodes), len(jobs))
	}
}

// TestSubmitJobEndToEnd drives one synchronous submission through the
// HTTP API: the controller profiles, plans, provisions simulated
// instances, trains in ddnnsim, and the response carries the finished job.
func TestSubmitJobEndToEnd(t *testing.T) {
	srv := newTestServer(t, false)
	body := `{"workload": "mnist DNN", "deadline_sec": 3600, "loss_target": 0.2}`
	resp, err := http.Post(srv.URL+"/api/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /api/jobs: %s", resp.Status)
	}
	var job struct {
		ID          string  `json:"id"`
		Status      string  `json:"status"`
		Workers     int     `json:"workers"`
		PS          int     `json:"ps"`
		TrainingSec float64 `json:"training_sec"`
		CostUSD     float64 `json:"cost_usd"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	if job.Status != "succeeded" {
		t.Fatalf("job status %q, want succeeded", job.Status)
	}
	if job.Workers < 1 || job.PS < 1 || job.TrainingSec <= 0 || job.CostUSD <= 0 {
		t.Errorf("implausible job outcome: %+v", job)
	}

	var fetched map[string]any
	getJSON(t, srv.URL+"/api/jobs/"+job.ID, &fetched)
	if fetched["status"] != "succeeded" {
		t.Errorf("GET job %s status %v", job.ID, fetched["status"])
	}
	if events := getBody(t, srv.URL+"/debug/journal?job="+job.ID); !strings.Contains(events, `"type":"job.finished"`) {
		t.Errorf("journal holds no job.finished event for the submission:\n%s", events)
	}
}

func TestSubmitRejectsBadPayloads(t *testing.T) {
	srv := newTestServer(t, false)
	for _, tc := range []struct {
		name, body string
	}{
		{"malformed", `{`},
		{"unknown field", `{"workload": "mnist DNN", "deadline_sec": 1, "loss_target": 0.2, "extra": 1}`},
		{"missing workload", `{"deadline_sec": 3600, "loss_target": 0.2}`},
		{"unknown workload", `{"workload": "gpt-4", "deadline_sec": 3600, "loss_target": 0.2}`},
		{"bad goal", `{"workload": "mnist DNN", "deadline_sec": -5, "loss_target": 0.2}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(srv.URL+"/api/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status %s, want 400", resp.Status)
			}
		})
	}
}

func TestGetMissingJobIs404(t *testing.T) {
	srv := newTestServer(t, false)
	resp, err := http.Get(srv.URL + "/api/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status %s, want 404", resp.Status)
	}
}

// TestTimelineEndToEnd submits a job and reads its flight-recorder
// timeline back through the debug endpoint in all three formats.
func TestTimelineEndToEnd(t *testing.T) {
	srv := newTestServer(t, false)
	body := `{"workload": "mnist DNN", "deadline_sec": 3600, "loss_target": 0.2}`
	resp, err := http.Post(srv.URL+"/api/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /api/jobs: %s", resp.Status)
	}

	var tl struct {
		Job   string `json:"job"`
		Trace string `json:"trace"`
		Steps []struct {
			Type   string `json:"type"`
			Source string `json:"source"`
		} `json:"steps"`
	}
	getJSON(t, srv.URL+"/debug/jobs/job-1/timeline", &tl)
	if tl.Job != "job-1" || tl.Trace == "" || len(tl.Steps) == 0 {
		t.Fatalf("timeline = %+v", tl)
	}
	seen := map[string]bool{}
	for _, s := range tl.Steps {
		seen[s.Type] = true
	}
	for _, want := range []string{"job.submitted", "job.plan.chosen", "segment.start", "segment.end", "job.finished"} {
		if !seen[want] {
			t.Errorf("timeline missing %s event; have %v", want, seen)
		}
	}

	for _, format := range []string{"text", "chrome"} {
		r, err := http.Get(srv.URL + "/debug/jobs/job-1/timeline?format=" + format)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("timeline format=%s: %s", format, r.Status)
		}
	}
	r, err := http.Get(srv.URL + "/debug/jobs/ghost/timeline")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("missing job timeline: %s, want 404", r.Status)
	}
}

// TestPprofFlagMountsProfiles pins what -pprof adds: the net/http/pprof
// index appears on the debug mux, and the API keeps working beside it.
func TestPprofFlagMountsProfiles(t *testing.T) {
	handler, _, _, _, _, err := setup(false, true, "")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	t.Cleanup(srv.Close)
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/debug/pprof/goroutine", "/debug/pprof/block", "/healthz"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %s", path, resp.Status)
		}
	}
	// Without the flag the profiles are absent.
	plain := newTestServer(t, false)
	resp, err := http.Get(plain.URL + "/debug/pprof/heap")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof served without -pprof")
	}
}

// TestPlanEndpointServed pins that the plan service is wired into the
// served mux: a repeated quote runs a search each time, answers the same
// plan both times, and registers no job.
func TestPlanEndpointServed(t *testing.T) {
	srv := newTestServer(t, false)
	body := `{"workload": "mnist DNN", "deadline_sec": 3600, "loss_target": 0.2}`
	var quotes []map[string]any
	for i := 0; i < 2; i++ {
		resp, err := http.Post(srv.URL+"/api/plan", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]any
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST /api/plan: %s, %v", resp.Status, err)
		}
		if out["search_stats"].(map[string]any)["enumerated"].(float64) == 0 {
			t.Errorf("quote %d ran no search: %v", i, out)
		}
		quotes = append(quotes, out)
	}
	for _, k := range []string{"instance_type", "workers", "ps", "iterations", "predicted_sec", "cost_usd"} {
		if quotes[0][k] != quotes[1][k] {
			t.Errorf("%s: first quote %v, second %v", k, quotes[0][k], quotes[1][k])
		}
	}
	var jobs []map[string]any
	getJSON(t, srv.URL+"/api/jobs", &jobs)
	if len(jobs) != 0 {
		t.Errorf("quotes registered %d jobs", len(jobs))
	}
}

// TestDrainAfterShutdown exercises the SIGTERM path's drain step: after
// the listener closes, queued work finishes and new submissions are
// refused.
func TestDrainAfterShutdown(t *testing.T) {
	handler, api, _, _, _, err := setup(false, false, "")
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	body := `{"workload": "mnist DNN", "deadline_sec": 3600, "loss_target": 0.2}`
	resp, err := http.Post(srv.URL+"/api/jobs?wait=false", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: %s", resp.Status)
	}
	if err := api.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// The accepted job ran to completion during the drain.
	var job map[string]any
	getJSON(t, srv.URL+"/api/jobs/job-1", &job)
	if job["status"] != "succeeded" {
		t.Errorf("drained job status = %v, want succeeded", job["status"])
	}
	// Admission is closed for good.
	resp, err = http.Post(srv.URL+"/api/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("post-drain submit: %s, want 429", resp.Status)
	}
	srv.Close()
}

// TestStateDirRestartRecovers boots a durable master, runs a job to
// completion, shuts down cleanly, and boots a second master over the
// same state directory: the restarted control plane must serve the
// recovered job table and the full flight-recorder history.
func TestStateDirRestartRecovers(t *testing.T) {
	dir := t.TempDir()
	handler, api, _, _, mgr, err := setup(false, false, dir)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(handler)
	body := `{"workload": "mnist DNN", "deadline_sec": 3600, "loss_target": 0.2}`
	resp, err := http.Post(srv.URL+"/api/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /api/jobs: %s", resp.Status)
	}
	before := getBody(t, srv.URL+"/debug/journal")
	// Clean shutdown: drain, pin the final snapshot, release the WAL.
	if err := api.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := mgr.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	handler2, _, _, _, mgr2, err := setup(false, false, dir)
	if err != nil {
		t.Fatalf("restart over state dir: %v", err)
	}
	defer mgr2.Close()
	if !mgr2.HasState() {
		t.Fatal("restarted manager recovered no state")
	}
	srv2 := httptest.NewServer(handler2)
	defer srv2.Close()
	var jobs []map[string]any
	getJSON(t, srv2.URL+"/api/jobs", &jobs)
	if len(jobs) != 1 || jobs[0]["status"] != "succeeded" {
		t.Fatalf("recovered job table = %+v, want one succeeded job", jobs)
	}
	// The flight-recorder journal survives byte-for-byte: the restarted
	// ring is rebuilt from the WAL, so the canonical JSONL matches what
	// the first incarnation served.
	if after := getBody(t, srv2.URL+"/debug/journal"); after != before {
		t.Errorf("restart changed the journal: %d bytes recovered, %d before shutdown", len(after), len(before))
	}
	var tl struct {
		Steps []map[string]any `json:"steps"`
	}
	getJSON(t, srv2.URL+"/debug/jobs/job-1/timeline", &tl)
	if len(tl.Steps) == 0 {
		t.Error("recovered job has no timeline")
	}
}

func getBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestGPUFlagSelectsExtendedCatalog pins what -gpu changes: the provider
// catalog grows from the paper's four CPU families to the extended set.
func TestGPUFlagSelectsExtendedCatalog(t *testing.T) {
	_, _, _, def, _, err := setup(false, false, "")
	if err != nil {
		t.Fatal(err)
	}
	_, _, _, ext, _, err := setup(true, false, "")
	if err != nil {
		t.Fatal(err)
	}
	if def.Len() != cloud.DefaultCatalog().Len() || ext.Len() != cloud.ExtendedCatalog().Len() {
		t.Errorf("catalog sizes %d/%d do not match the default/extended catalogs", def.Len(), ext.Len())
	}
	if ext.Len() <= def.Len() {
		t.Errorf("extended catalog (%d types) not larger than default (%d)", ext.Len(), def.Len())
	}
}

// TestMetricsServed pins that the control plane's own counters are
// readable: after one submission, GET /metrics carries the controller's
// and the plan service's families.
func TestMetricsServed(t *testing.T) {
	srv := newTestServer(t, false)
	body := `{"workload": "mnist DNN", "deadline_sec": 3600, "loss_target": 0.2}`
	resp, err := http.Post(srv.URL+"/api/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("POST /api/jobs: %s", resp.Status)
	}
	metrics := getBody(t, srv.URL+"/metrics")
	for _, family := range []string{"cynthia_jobs_total", "cynthia_plansvc_requests_total"} {
		if !strings.Contains(metrics, family) {
			t.Errorf("/metrics lacks %s", family)
		}
	}
}

// crashMidSegment writes a state dir in which n jobs were cut mid-segment:
// a durable world whose fault plan kills the master at each job's first
// segment barrier, as a crashed cmd/master leaves it.
func crashMidSegment(t *testing.T, dir string, n int) {
	t.Helper()
	mgr, err := replay.Open(dir, replay.Options{Mode: replay.ModeResume, SnapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	master, err := cluster.NewMaster()
	if err != nil {
		t.Fatal(err)
	}
	master.SetJournal(journal.New(journal.DefaultCapacity, journal.WithSink(mgr)), nil)
	provider := cloud.NewProvider(cloud.DefaultCatalog(), func() float64 { return 0 })
	provider.SetJournal(master.Journal())
	provider.SetFaultPlan(cloud.FaultPlan{KillMasterAtSec: make([]float64, n)})
	ctl := cluster.NewController(master, provider, nil, "")
	ctl.Durability = mgr
	mgr.Attach(ctl, master, provider, master.Journal())
	w, err := model.WorkloadByName("mnist DNN")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := ctl.Submit(w, plan.Goal{TimeSec: 3600, LossTarget: 0.2}); !errors.Is(err, cluster.ErrMasterKilled) {
			t.Fatalf("job %d: err = %v, want the scheduled master kill", i+1, err)
		}
	}
	// Pin the consumed kills with the jobs still mid-segment, so the
	// restarted master does not crash again.
	if err := mgr.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDrainWaitsForResumedJobs restarts a master over jobs cut
// mid-segment. The resumed jobs run on the workqueue, so Drain — the
// SIGTERM path before the final snapshot and WAL close — returns only
// once every job is terminal.
func TestDrainWaitsForResumedJobs(t *testing.T) {
	dir := t.TempDir()
	const jobs = 3
	crashMidSegment(t, dir, jobs)
	handler, api, _, _, mgr, err := setup(false, false, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	srv := httptest.NewServer(handler)
	defer srv.Close()
	if err := api.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	var got []map[string]any
	getJSON(t, srv.URL+"/api/jobs", &got)
	if len(got) != jobs {
		t.Fatalf("recovered %d jobs, want %d", len(got), jobs)
	}
	for _, j := range got {
		if j["status"] != "succeeded" {
			t.Errorf("job %v is %v after Drain, want succeeded", j["id"], j["status"])
		}
	}
}

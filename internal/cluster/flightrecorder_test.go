package cluster

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cynthia/internal/obs"
	"cynthia/internal/obs/journal"
	"cynthia/internal/plan"
)

// TestDebugTimelineEndpoint drives a job through the API and reads its
// causal narrative back in all three renderings.
func TestDebugTimelineEndpoint(t *testing.T) {
	api, _ := newTestAPI(t)
	h := api.Handler()
	rec, out := doJSON(t, h, "POST", "/api/jobs",
		`{"workload": "mnist DNN", "deadline_sec": 1800, "loss_target": 0.2}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body.String())
	}
	id := out["id"].(string)
	if tr, _ := out["trace_id"].(string); tr == "" {
		t.Error("job response carries no trace_id")
	}

	rec, tl := doJSON(t, h, "GET", "/debug/jobs/"+id+"/timeline", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("timeline = %d: %s", rec.Code, rec.Body.String())
	}
	if tl["job"] != id || tl["trace"] == "" {
		t.Errorf("timeline header = %v", tl)
	}
	steps, _ := tl["steps"].([]any)
	if len(steps) == 0 {
		t.Fatal("timeline has no steps")
	}

	rec, _ = doJSON(t, h, "GET", "/debug/jobs/"+id+"/timeline?format=text", "")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "job.submitted") {
		t.Errorf("text timeline = %d %q", rec.Code, rec.Body.String())
	}
	rec, _ = doJSON(t, h, "GET", "/debug/jobs/"+id+"/timeline?format=chrome", "")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ph"`) {
		t.Errorf("chrome timeline = %d %q", rec.Code, rec.Body.String())
	}
	rec, _ = doJSON(t, h, "GET", "/debug/jobs/"+id+"/timeline?format=yaml", "")
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad format = %d, want 400", rec.Code)
	}
	rec, _ = doJSON(t, h, "GET", "/debug/jobs/ghost/timeline", "")
	if rec.Code != http.StatusNotFound {
		t.Errorf("missing job timeline = %d, want 404", rec.Code)
	}
}

// TestTimelineWriteFailuresAreCounted pins that the text and Chrome
// renderings count a failed write in cluster_api_write_errors, as the
// JSON rendering does.
func TestTimelineWriteFailuresAreCounted(t *testing.T) {
	api, _ := newTestAPI(t)
	h := api.Handler()
	rec, out := doJSON(t, h, "POST", "/api/jobs",
		`{"workload": "mnist DNN", "deadline_sec": 1800, "loss_target": 0.2}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body.String())
	}
	id := out["id"].(string)
	for _, format := range []string{"text", "chrome"} {
		before := writeErrorsCounter().Value()
		req := httptest.NewRequest("GET", "/debug/jobs/"+id+"/timeline?format="+format, nil)
		h.ServeHTTP(&failingWriter{h: http.Header{}}, req)
		if got := writeErrorsCounter().Value(); got != before+1 {
			t.Errorf("format=%s: write errors = %d, want %d", format, got, before+1)
		}
	}
}

// TestDebugJournalEndpoint checks the canonical JSONL stream and its
// after/job filters.
func TestDebugJournalEndpoint(t *testing.T) {
	api, _ := newTestAPI(t)
	h := api.Handler()
	rec, out := doJSON(t, h, "POST", "/api/jobs",
		`{"workload": "mnist DNN", "deadline_sec": 1800, "loss_target": 0.2}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body.String())
	}
	id := out["id"].(string)

	rec, _ = doJSON(t, h, "GET", "/debug/journal", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("journal = %d", rec.Code)
	}
	all := strings.Count(rec.Body.String(), "\n")
	if all == 0 {
		t.Fatal("journal stream is empty")
	}
	rec, _ = doJSON(t, h, "GET", "/debug/journal?after=3", "")
	if got := strings.Count(rec.Body.String(), "\n"); got != all-3 {
		t.Errorf("after=3 returned %d lines, want %d", got, all-3)
	}
	rec, _ = doJSON(t, h, "GET", "/debug/journal?job="+id, "")
	body := rec.Body.String()
	if strings.Count(body, "\n") == 0 || !strings.Contains(body, `"job":"`+id+`"`) {
		t.Errorf("job filter returned %q", body)
	}
	for _, bad := range []string{"nope", "3junk", "-1", "1.5", "0x10"} {
		rec, _ = doJSON(t, h, "GET", "/debug/journal?after="+bad, "")
		if rec.Code != http.StatusBadRequest {
			t.Errorf("after=%q = %d, want 400", bad, rec.Code)
		}
	}
}

// TestDebugJournalTruncationHeader pins the eviction contract: when the
// bounded ring has dropped events past the caller's cursor, the response
// carries X-Journal-Truncated with the oldest retained sequence.
func TestDebugJournalTruncationHeader(t *testing.T) {
	api, _ := newTestAPI(t)
	h := api.Handler()
	jrnl := journal.New(2, journal.Deterministic())
	api.master.SetJournal(jrnl, nil)
	for i := 0; i < 5; i++ {
		jrnl.Append(journal.Event{Source: "test", Type: journal.SegmentStart, At: float64(i)})
	}
	// Ring holds seqs 4..5; a cursor at 0 lost 1..3.
	rec, _ := doJSON(t, h, "GET", "/debug/journal", "")
	if got := rec.Header().Get("X-Journal-Truncated"); got != "4" {
		t.Errorf("X-Journal-Truncated = %q, want 4", got)
	}
	if lines := strings.Count(rec.Body.String(), "\n"); lines != 2 {
		t.Errorf("stream has %d lines, want the 2 retained", lines)
	}
	// A cursor already at or past the eviction horizon sees no header.
	rec, _ = doJSON(t, h, "GET", "/debug/journal?after=3", "")
	if got := rec.Header().Get("X-Journal-Truncated"); got != "" {
		t.Errorf("in-range cursor got X-Journal-Truncated = %q", got)
	}
	rec, _ = doJSON(t, h, "GET", "/debug/journal?after=5", "")
	if got := rec.Header().Get("X-Journal-Truncated"); got != "" {
		t.Errorf("caught-up cursor got X-Journal-Truncated = %q", got)
	}
}

// TestMasterSetJournal swaps in a journal and checks that Journal()
// returns it and that the master's node and pod bookkeeping appends
// nothing to it: the registry holds those facts, and the provider
// journals the instances behind the nodes.
func TestMasterSetJournal(t *testing.T) {
	master := newMaster(t)
	jrnl := journal.New(64, journal.Deterministic())
	master.SetJournal(jrnl, nil)
	if master.Journal() != jrnl {
		t.Fatal("Journal() did not return the attached journal")
	}
	token, hash := master.JoinCredentials()
	if _, err := master.Join("n1", "i-1", m4(t), 4, token, hash); err != nil {
		t.Fatal(err)
	}
	pod, err := master.Schedule(PodSpec{Role: RoleWorker, Job: "j"})
	if err != nil {
		t.Fatal(err)
	}
	if err := master.Delete(pod.Name); err != nil {
		t.Fatal(err)
	}
	if err := master.Drain("n1"); err != nil {
		t.Fatal(err)
	}
	if events := jrnl.Since(0); len(events) != 0 {
		t.Errorf("master bookkeeping journaled %d events: %+v", len(events), events)
	}
}

// TestSLOMetricsExports records jobs of every outcome plus a recovery
// cycle, then asserts the registry exports the full SLO family set in
// both forms — the Prometheus text scrape and the JSON snapshot.
func TestSLOMetricsExports(t *testing.T) {
	reg := obs.NewRegistry()
	slo := NewSLOMetrics(reg)

	goal := plan.Goal{TimeSec: 1000, LossTarget: 0.2}
	pl := plan.Plan{Cost: 2}
	slo.observeJob(Job{JobState: JobState{Status: StatusSucceeded, Goal: goal, Plan: pl, TrainingTime: 900, Cost: 2.2}}, 30, 900, 0)
	slo.observeJob(Job{JobState: JobState{Status: StatusMissedGoal, Goal: goal, Plan: pl, TrainingTime: 1200, Cost: 3}}, 30, 1200, 60)
	slo.observeJob(Job{JobState: JobState{Status: StatusFailed, Goal: goal}}, 30, 0, 0)
	slo.observeRecovery(45)

	// Nil receivers are no-ops so the controller never branches.
	var none *SLOMetrics
	none.observeJob(Job{}, 0, 0, 0)
	none.observeRecovery(1)

	var text, js bytes.Buffer
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{
		"cynthia_slo_jobs_total",
		"cynthia_slo_deadline_attainment_ratio",
		"cynthia_slo_deadline_margin_ratio",
		"cynthia_slo_cost_overrun_ratio",
		"cynthia_slo_last_cost_overrun_ratio",
		"cynthia_slo_recovery_seconds",
		"cynthia_slo_budget_burn_ratio",
	} {
		if !strings.Contains(text.String(), fam) {
			t.Errorf("Prometheus text export missing %s", fam)
		}
		if !strings.Contains(js.String(), fam) {
			t.Errorf("JSON snapshot export missing %s", fam)
		}
	}
	if !strings.Contains(text.String(), `cynthia_slo_jobs_total{outcome="met"} 1`) {
		t.Errorf("outcome counters wrong:\n%s", text.String())
	}
	// One of three jobs met its deadline.
	if !strings.Contains(text.String(), "cynthia_slo_deadline_attainment_ratio 0.333") {
		t.Errorf("attainment gauge wrong:\n%s", text.String())
	}
}

// TestControllerRecordsSLO wires SLOMetrics into a live controller and
// checks a finished job lands in the registry.
func TestControllerRecordsSLO(t *testing.T) {
	api, _ := newTestAPI(t)
	reg := obs.NewRegistry()
	api.controller.SLO = NewSLOMetrics(reg)
	rec, _ := doJSON(t, api.Handler(), "POST", "/api/jobs",
		`{"workload": "mnist DNN", "deadline_sec": 1800, "loss_target": 0.2}`)
	if rec.Code != http.StatusCreated {
		t.Fatalf("submit = %d: %s", rec.Code, rec.Body.String())
	}
	var text bytes.Buffer
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), `cynthia_slo_jobs_total{outcome="met"} 1`) {
		t.Errorf("controller did not record the finished job:\n%s", text.String())
	}
}

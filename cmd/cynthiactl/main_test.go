package main

import (
	"net/http/httptest"
	"strings"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/cluster"
)

func startMaster(t *testing.T) string {
	t.Helper()
	master, err := cluster.NewMaster()
	if err != nil {
		t.Fatal(err)
	}
	provider := cloud.NewProvider(cloud.DefaultCatalog(), nil)
	provider.SetJournal(master.Journal())
	controller := cluster.NewController(master, provider, nil, "")
	srv := httptest.NewServer(cluster.NewAPI(master, controller).Handler())
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

func TestGetResources(t *testing.T) {
	addr := startMaster(t)
	for _, args := range [][]string{
		{"get", "nodes"},
		{"get", "pods"},
		{"get", "jobs"},
	} {
		if err := run(addr, args); err != nil {
			t.Errorf("%v failed: %v", args, err)
		}
	}
}

func TestSubmitAndGetJob(t *testing.T) {
	addr := startMaster(t)
	if err := run(addr, []string{"submit", "-workload", "mnist DNN", "-deadline", "1800", "-loss", "0.2"}); err != nil {
		t.Fatalf("submit failed: %v", err)
	}
	if err := run(addr, []string{"get", "job", "job-1"}); err != nil {
		t.Errorf("get job failed: %v", err)
	}
	if err := run(addr, []string{"get", "pods", "job-1"}); err != nil {
		t.Errorf("get pods with filter failed: %v", err)
	}
}

func TestPlanQuote(t *testing.T) {
	addr := startMaster(t)
	// Quote twice (each runs a search), then check no job was registered
	// by either.
	for i := 0; i < 2; i++ {
		if err := run(addr, []string{"plan", "-workload", "mnist DNN", "-deadline", "1800", "-loss", "0.2"}); err != nil {
			t.Fatalf("plan failed: %v", err)
		}
	}
	if err := run(addr, []string{"get", "job", "job-1"}); err == nil {
		t.Error("plan quote registered a job")
	}
	// An unreachable goal surfaces the server's 422 as a CLI error.
	if err := run(addr, []string{"plan", "-workload", "VGG-19", "-deadline", "3600", "-loss", "0.1"}); err == nil {
		t.Error("infeasible quote did not error")
	}
}

func TestAsyncSubmitReturnsAccepted(t *testing.T) {
	addr := startMaster(t)
	if err := run(addr, []string{"submit", "-async", "-workload", "mnist DNN", "-deadline", "1800", "-loss", "0.2"}); err != nil {
		t.Fatalf("async submit failed: %v", err)
	}
	if err := run(addr, []string{"get", "job", "job-1"}); err != nil {
		t.Errorf("get job after async submit failed: %v", err)
	}
}

func TestTimelineAndEvents(t *testing.T) {
	addr := startMaster(t)
	if err := run(addr, []string{"submit", "-workload", "mnist DNN", "-deadline", "1800", "-loss", "0.2"}); err != nil {
		t.Fatalf("submit failed: %v", err)
	}
	for _, args := range [][]string{
		{"timeline", "job-1"},
		{"timeline", "job-1", "-format", "json"},
		{"timeline", "job-1", "-format", "chrome"},
		{"events"},
		{"events", "-job", "job-1"},
		{"events", "-after", "5"},
	} {
		if err := run(addr, args); err != nil {
			t.Errorf("%v failed: %v", args, err)
		}
	}
	if err := run(addr, []string{"timeline", "ghost"}); err == nil {
		t.Error("timeline for missing job did not error")
	}
	if err := run(addr, []string{"timeline"}); err == nil {
		t.Error("timeline without a job accepted")
	}
}

func TestUsageErrors(t *testing.T) {
	addr := startMaster(t)
	cases := [][]string{
		nil,
		{"frobnicate"},
		{"get"},
		{"get", "quota"},
		{"get", "job"},
	}
	for _, args := range cases {
		if err := run(addr, args); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
	// Server-side error surfaces as a CLI error.
	if err := run(addr, []string{"get", "job", "ghost"}); err == nil {
		t.Error("missing job did not error")
	}
}

package cluster

import (
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/model"
	"cynthia/internal/obs/journal"
	"cynthia/internal/plan"
)

// fieldOf returns the value of an event's field, or "" when it has none.
func fieldOf(e journal.Event, key string) string {
	for _, f := range e.Fields {
		if f.Key == key {
			return f.Value
		}
	}
	return ""
}

// jobEventsOf returns the journal events of one type tagged with a job.
func jobEventsOf(jrnl *journal.Journal, job string, typ journal.Type) []journal.Event {
	var out []journal.Event
	for _, e := range jrnl.JobEvents(job) {
		if e.Type == typ {
			out = append(out, e)
		}
	}
	return out
}

// TestControllerEmitsJobEvents runs one job and checks its lifecycle is
// journaled by the controller and the planner alone: the master's node
// and pod bookkeeping and the simulator emit nothing.
func TestControllerEmitsJobEvents(t *testing.T) {
	master := newMaster(t)
	provider := cloud.NewProvider(cloud.DefaultCatalog(), nil)
	ctl := NewController(master, provider, nil, "")
	w, _ := model.WorkloadByName("mnist DNN")
	if _, err := ctl.Submit(w, plan.Goal{TimeSec: 1800, LossTarget: 0.2}); err != nil {
		t.Fatal(err)
	}
	types := map[journal.Type]bool{}
	for _, e := range master.Journal().Since(0) {
		types[e.Type] = true
		if e.Source != "controller" && e.Source != "plan" {
			t.Errorf("%s from source %q, want controller or plan", e.Type, e.Source)
		}
	}
	for _, want := range []journal.Type{journal.JobSubmitted, journal.PlanChosen, journal.JobProvisioned,
		journal.SegmentStart, journal.SegmentEnd, journal.JobFinished} {
		if !types[want] {
			t.Errorf("missing event %s (have %v)", want, types)
		}
	}
}

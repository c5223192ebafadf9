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

func TestEventsRecordLifecycle(t *testing.T) {
	m := newMaster(t)
	jrnl := journal.New(16, journal.Deterministic())
	m.SetJournal(jrnl, nil)
	token, hash := m.JoinCredentials()
	if _, err := m.Join("n1", "i-1", m4(t), 2, token, hash); err != nil {
		t.Fatal(err)
	}
	pod, err := m.Schedule(PodSpec{Role: RoleWorker, Job: "j"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(pod.Name); err != nil {
		t.Fatal(err)
	}
	if err := m.Drain("n1"); err != nil {
		t.Fatal(err)
	}
	events := jrnl.Since(0)
	want := []struct {
		typ         journal.Type
		key, object string
	}{
		{journal.NodeJoined, "node", "n1"},
		{journal.PodScheduled, "pod", pod.Name},
		{journal.PodDeleted, "pod", pod.Name},
		{journal.NodeDrained, "node", "n1"},
	}
	if len(events) != len(want) {
		t.Fatalf("%d events, want %d: %+v", len(events), len(want), events)
	}
	for i, w := range want {
		e := events[i]
		if e.Type != w.typ || e.Seq != uint64(i+1) || e.Source != "master" {
			t.Errorf("event %d = %s seq %d source %q, want %s seq %d from master",
				i, e.Type, e.Seq, e.Source, w.typ, i+1)
		}
		if got := fieldOf(e, w.key); got != w.object {
			t.Errorf("event %d %s = %q, want %q", i, w.key, got, w.object)
		}
	}
	// Incremental reads.
	if tail := jrnl.Since(2); len(tail) != 2 || tail[0].Type != journal.PodDeleted {
		t.Errorf("after=2 tail = %+v", tail)
	}
}

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
	}
	for _, want := range []journal.Type{journal.JobSubmitted, journal.PlanChosen, journal.JobFinished,
		journal.NodeJoined, journal.PodScheduled} {
		if !types[want] {
			t.Errorf("missing event %s (have %v)", want, types)
		}
	}
}

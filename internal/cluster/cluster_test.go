package cluster

import (
	"strings"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/model"
	"cynthia/internal/plan"
)

func m4(t *testing.T) cloud.InstanceType {
	t.Helper()
	it, err := cloud.DefaultCatalog().Lookup(cloud.M4XLarge)
	if err != nil {
		t.Fatal(err)
	}
	return it
}

func newMaster(t *testing.T) *Master {
	t.Helper()
	m, err := NewMaster()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTokenFormat(t *testing.T) {
	tok, err := newToken()
	if err != nil {
		t.Fatal(err)
	}
	parts := strings.Split(tok, ".")
	if len(parts) != 2 || len(parts[0]) != 6 || len(parts[1]) != 16 {
		t.Errorf("token %q not kubeadm-shaped", tok)
	}
	tok2, _ := newToken()
	if tok == tok2 {
		t.Error("tokens not unique")
	}
}

func TestJoinRequiresCredentials(t *testing.T) {
	m := newMaster(t)
	token, hash := m.JoinCredentials()
	if !strings.HasPrefix(hash, "sha256:") {
		t.Errorf("hash %q", hash)
	}
	if _, err := m.Join("n1", "i-1", m4(t), 2, "bad.token", hash); err == nil {
		t.Error("bad token accepted")
	}
	if _, err := m.Join("n1", "i-1", m4(t), 2, token, "sha256:beef"); err == nil {
		t.Error("bad CA hash accepted")
	}
	if _, err := m.Join("n1", "i-1", m4(t), 2, token, hash); err != nil {
		t.Errorf("valid join rejected: %v", err)
	}
	if _, err := m.Join("n1", "i-2", m4(t), 2, token, hash); err == nil {
		t.Error("duplicate node accepted")
	}
	if _, err := m.Join("n2", "i-2", m4(t), 0, token, hash); err == nil {
		t.Error("zero cores accepted")
	}
}

func joinN(t *testing.T, m *Master, n, cores int) {
	t.Helper()
	token, hash := m.JoinCredentials()
	for i := 0; i < n; i++ {
		name := "n" + string(rune('a'+i))
		if _, err := m.Join(name, "i-"+name, m4(t), cores, token, hash); err != nil {
			t.Fatal(err)
		}
	}
}

func TestScheduleSpreadsAndFills(t *testing.T) {
	m := newMaster(t)
	joinN(t, m, 2, 2)
	var pods []*Pod
	for i := 0; i < 4; i++ {
		p, err := m.Schedule(PodSpec{Role: RoleWorker, Job: "j1"})
		if err != nil {
			t.Fatal(err)
		}
		pods = append(pods, p)
	}
	// Spread: first two pods on different nodes.
	if pods[0].Node == pods[1].Node {
		t.Errorf("no spread: %s, %s", pods[0].Node, pods[1].Node)
	}
	// Cluster is full now.
	if _, err := m.Schedule(PodSpec{Role: RoleWorker, Job: "j1"}); err == nil {
		t.Error("overcommit accepted")
	}
	// Free one core and try again.
	if err := m.Delete(pods[0].Name); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Schedule(PodSpec{Role: RolePS, Job: "j1"}); err != nil {
		t.Errorf("schedule after delete failed: %v", err)
	}
}

func TestScheduleTypeFilter(t *testing.T) {
	m := newMaster(t)
	joinN(t, m, 1, 2)
	if _, err := m.Schedule(PodSpec{Role: RoleWorker, Job: "j", TypeName: cloud.R3XLarge}); err == nil {
		t.Error("type filter ignored")
	}
	if _, err := m.Schedule(PodSpec{Role: RoleWorker, Job: "j", TypeName: cloud.M4XLarge}); err != nil {
		t.Errorf("matching type rejected: %v", err)
	}
}

func TestDrainRules(t *testing.T) {
	m := newMaster(t)
	joinN(t, m, 1, 1)
	pod, err := m.Schedule(PodSpec{Role: RoleWorker, Job: "j"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Drain("na"); err == nil {
		t.Error("drained a node with pods")
	}
	if err := m.Delete(pod.Name); err != nil {
		t.Fatal(err)
	}
	if err := m.Drain("na"); err != nil {
		t.Errorf("drain failed: %v", err)
	}
	if err := m.Drain("na"); err == nil {
		t.Error("double drain accepted")
	}
	if err := m.Delete("ghost"); err == nil {
		t.Error("deleting missing pod accepted")
	}
}

func TestNodesAndPodsSnapshots(t *testing.T) {
	m := newMaster(t)
	joinN(t, m, 2, 2)
	if _, err := m.Schedule(PodSpec{Role: RoleWorker, Job: "j1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Schedule(PodSpec{Role: RolePS, Job: "j2"}); err != nil {
		t.Fatal(err)
	}
	nodes := m.Nodes()
	if len(nodes) != 2 || nodes[0].Name > nodes[1].Name {
		t.Errorf("nodes snapshot: %+v", nodes)
	}
	if got := len(m.Pods("")); got != 2 {
		t.Errorf("all pods = %d", got)
	}
	if got := len(m.Pods("j1")); got != 1 {
		t.Errorf("j1 pods = %d", got)
	}
}

func TestControllerEndToEnd(t *testing.T) {
	master := newMaster(t)
	provider := cloud.NewProvider(cloud.DefaultCatalog(), nil)
	ctl := NewController(master, provider, nil, "")

	w, err := model.WorkloadByName("cifar10 DNN")
	if err != nil {
		t.Fatal(err)
	}
	job, err := ctl.Submit(w, plan.Goal{TimeSec: 7200, LossTarget: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if job.Status != StatusSucceeded {
		t.Fatalf("job status = %s (err %q), plan %v", job.Status, job.Err, job.Plan)
	}
	if job.TrainingTime <= 0 || job.TrainingTime > 7200*1.05 {
		t.Errorf("training time = %.0f", job.TrainingTime)
	}
	if job.FinalLoss > 0.8*1.1 {
		t.Errorf("final loss = %.3f, want <= ~0.8", job.FinalLoss)
	}
	if job.Cost <= 0 {
		t.Errorf("cost = %v", job.Cost)
	}
	// Everything torn down.
	if n := provider.RunningCount(""); n != 0 {
		t.Errorf("%d instances still running", n)
	}
	if pods := master.Pods(""); len(pods) != 0 {
		t.Errorf("%d pods left", len(pods))
	}
	if nodes := master.Nodes(); len(nodes) != 0 {
		t.Errorf("%d nodes left", len(nodes))
	}
	// Job snapshot retrievable.
	got, err := ctl.Job(job.ID)
	if err != nil || got.Status != StatusSucceeded {
		t.Errorf("Job() = %+v, %v", got, err)
	}
	if len(ctl.Jobs()) != 1 {
		t.Errorf("Jobs() = %d", len(ctl.Jobs()))
	}
}

func TestControllerProfileCached(t *testing.T) {
	master := newMaster(t)
	provider := cloud.NewProvider(cloud.DefaultCatalog(), nil)
	ctl := NewController(master, provider, nil, "")
	w, _ := model.WorkloadByName("mnist DNN")
	if _, err := ctl.Submit(w, plan.Goal{TimeSec: 1800, LossTarget: 0.2}); err != nil {
		t.Fatal(err)
	}
	p1 := ctl.profiles[w.Name]
	if _, err := ctl.Submit(w, plan.Goal{TimeSec: 3600, LossTarget: 0.2}); err != nil {
		t.Fatal(err)
	}
	if ctl.profiles[w.Name] != p1 {
		t.Error("profile not cached across submissions")
	}
}

func TestControllerValidation(t *testing.T) {
	master := newMaster(t)
	provider := cloud.NewProvider(cloud.DefaultCatalog(), nil)
	ctl := NewController(master, provider, nil, "")
	if _, err := ctl.Submit(nil, plan.Goal{TimeSec: 1, LossTarget: 1}); err == nil {
		t.Error("nil workload accepted")
	}
	if _, err := ctl.Job("nope"); err == nil {
		t.Error("missing job found")
	}
	w, _ := model.WorkloadByName("VGG-19")
	job, err := ctl.Submit(w, plan.Goal{TimeSec: 3600, LossTarget: 0.1})
	if err == nil {
		t.Errorf("unreachable loss accepted: %+v", job)
	}
	if job.Status != StatusFailed || job.Err == "" {
		t.Errorf("failed job not recorded: %+v", job)
	}
}

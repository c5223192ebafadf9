package replay

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"cynthia/internal/cloud"
	"cynthia/internal/cluster"
	"cynthia/internal/model"
	"cynthia/internal/obs/journal"
	"cynthia/internal/obs/journal/wal"
	"cynthia/internal/plan"
)

// spliceWorld is a seeded model of the control-plane world. Jobs and
// instances move through their lifecycles the way the controller and
// provider move them, and a frozen record — a terminal job, a finished
// instance — is never touched again.
type spliceWorld struct {
	rng  *rand.Rand
	wl   *model.Workload
	typ  cloud.InstanceType
	seq  uint64
	src  map[string]uint64
	cs   cluster.ControllerState
	ms   cluster.MasterState
	ps   cloud.ProviderState
	seen map[string]bool // what the sequence covered, for the coverage check
}

func newSpliceWorld(t *testing.T, seed int64) *spliceWorld {
	t.Helper()
	wl, err := model.WorkloadByName("mnist DNN")
	if err != nil {
		t.Fatal(err)
	}
	typ, err := cloud.DefaultCatalog().Lookup("m4.xlarge")
	if err != nil {
		t.Fatal(err)
	}
	return &spliceWorld{rng: rand.New(rand.NewSource(seed)), wl: wl, typ: typ, seen: map[string]bool{}}
}

// lifecycle is the status a live job moves to next; a running job may
// also detour through recovering.
var lifecycle = map[cluster.JobStatus]cluster.JobStatus{
	cluster.StatusQueued:       cluster.StatusPlanning,
	cluster.StatusPlanning:     cluster.StatusProvisioning,
	cluster.StatusProvisioning: cluster.StatusRunning,
	cluster.StatusRecovering:   cluster.StatusRunning,
}

var terminals = []cluster.JobStatus{cluster.StatusSucceeded, cluster.StatusMissedGoal, cluster.StatusFailed}

// step moves the world on by one barrier's worth of change.
func (w *spliceWorld) step() {
	r := w.rng
	w.seq += uint64(1 + r.Intn(20))
	w.ps.ClockSec += r.Float64() * 300

	if r.Intn(2) == 0 {
		w.cs.NextJob++
		id := fmt.Sprintf("job-%d", w.cs.NextJob)
		w.cs.Jobs = append(w.cs.Jobs, cluster.JobState{
			ID: id, TraceID: fmt.Sprintf("trace-%06d", w.cs.NextJob), Seq: w.cs.NextJob,
			Workload: w.wl, Goal: plan.Goal{TimeSec: 600 + r.Float64()*1800, LossTarget: 0.2},
			Status: cluster.StatusQueued, History: []cluster.JobStatus{cluster.StatusQueued},
		})
	}
	for i := range w.cs.Jobs {
		js := &w.cs.Jobs[i]
		if js.Status.Terminal() || r.Intn(2) == 0 {
			continue
		}
		next, ok := lifecycle[js.Status]
		switch {
		case ok:
		case r.Intn(4) == 0:
			next = cluster.StatusRecovering
			js.Recoveries++
			js.LostIterations += r.Intn(50)
		default:
			next = terminals[r.Intn(len(terminals))]
			js.TrainingTime = r.Float64() * 2000
			js.FinalLoss = 0.19 + r.Float64()*1e-7
			js.Cost = r.Float64() * 1e-3
			if next == cluster.StatusFailed {
				js.Err = "cloud: insufficient capacity <m4.xlarge> & retries exhausted"
			}
		}
		if next == cluster.StatusProvisioning {
			js.Plan = plan.Plan{Type: w.typ, Workers: 1 + r.Intn(3), PS: 1, Iterations: 1000, PredTime: 900, Cost: 0.01, Feasible: true}
		}
		js.Status = next
		js.History = append(js.History, next)
		w.seen[string(next)] = true
	}

	if r.Intn(2) == 0 {
		for n := 1 + r.Intn(2); n > 0; n-- {
			w.ps.NextID++
			job := fmt.Sprintf("job-%d", 1+r.Intn(max(1, w.cs.NextJob)))
			w.ps.Instances = append(w.ps.Instances, cloud.Instance{
				ID: fmt.Sprintf("i-%08x", w.ps.NextID), Type: w.typ,
				Tags:  map[string]string{"job": job, "role": "worker"},
				State: cloud.StateRunning, LaunchedAt: w.ps.ClockSec, ReadyAt: w.ps.ClockSec + r.Float64(),
				Spot: r.Intn(3) == 0, BidPerHour: 0.07,
			})
			w.seen["launched"] = true
		}
	}
	for i := range w.ps.Instances {
		inst := &w.ps.Instances[i]
		if inst.State != cloud.StateRunning || r.Intn(4) != 0 {
			continue
		}
		inst.State = cloud.StateTerminated
		if r.Intn(3) == 0 {
			inst.State = cloud.StateFailed // revoked
		}
		inst.TerminatedAt = w.ps.ClockSec
		w.seen["instance-"+inst.State.String()] = true
	}

	w.cs.Segments = nil
	if r.Intn(3) > 0 {
		for _, js := range w.cs.Jobs {
			if js.Status == cluster.StatusRunning || js.Status == cluster.StatusRecovering {
				w.cs.Segments = append(w.cs.Segments, cluster.SegmentState{
					JobID: js.ID, Phase: cluster.PhaseSegment, Plan: js.Plan,
					TotalIters: 1000, Done: r.Intn(1000), Elapsed: r.Float64() * 900, Handled: []string{"i-00000001"},
				})
			}
		}
	}
	w.ps.Limits = nil
	if r.Intn(2) == 0 {
		w.ps.Limits = map[string]int{"m4.xlarge": 4 + r.Intn(8), "c4.large": 2}
	}
	w.ps.Fault = nil
	if r.Intn(2) == 0 {
		w.ps.Fault = &cloud.FaultState{
			Plan:      cloud.FaultPlan{Seed: 7, PreemptRate: 0.5, PreemptMinSec: 60, PreemptMaxSec: 600},
			Draws:     r.Intn(4),
			PreemptAt: map[string]float64{"i-00000001": w.ps.ClockSec + 1e21},
		}
	}
	w.src = nil
	if r.Intn(2) == 0 {
		w.src = map[string]uint64{"controller": w.seq / 2, "cloud": w.seq / 3}
	}
	w.ms = cluster.MasterState{NextPod: w.cs.NextJob}
	if r.Intn(2) == 0 {
		w.ms.Nodes = []cluster.NodeState{{Name: "node-a", InstanceID: "i-00000001", Type: w.typ, Cores: 2, Used: []string{"p-1", ""}}}
		w.ms.Pods = []cluster.Pod{{Name: "p-1", Role: cluster.RoleWorker, Job: "job-1", Node: "node-a"}}
	}
	for cond, set := range map[string]bool{
		"segments": len(w.cs.Segments) > 0, "limits": w.ps.Limits != nil,
		"fault": w.ps.Fault != nil, "src_seqs": w.src != nil,
	} {
		w.seen[fmt.Sprintf("%s=%v", cond, set)] = true
	}
}

// dropFrozen removes the oldest terminal job and finished instance, the
// way a restore to a world without them would.
func (w *spliceWorld) dropFrozen() {
	for i, js := range w.cs.Jobs {
		if js.Status.Terminal() {
			w.cs.Jobs = append(w.cs.Jobs[:i:i], w.cs.Jobs[i+1:]...)
			break
		}
	}
	for i, inst := range w.ps.Instances {
		if inst.State.Finished() {
			w.ps.Instances = append(w.ps.Instances[:i:i], w.ps.Instances[i+1:]...)
			break
		}
	}
}

// frozen counts the world's terminal jobs and finished instances.
func (w *spliceWorld) frozen() (jobs, insts int) {
	for _, js := range w.cs.Jobs {
		if js.Status.Terminal() {
			jobs++
		}
	}
	for _, inst := range w.ps.Instances {
		if inst.State.Finished() {
			insts++
		}
	}
	return jobs, insts
}

// load restores the model into the attached world, as Rebuild would but
// without resetting the manager's encoding cache.
func (w *spliceWorld) load(tw *testWorld) {
	*tw.now = w.ps.ClockSec
	tw.provider.RestoreState(w.ps)
	tw.master.RestoreState(w.ms)
	tw.ctl.RestoreState(w.cs)
	tw.jrnl.Restore(nil, w.seq, w.src)
}

// marshalWorld is json.Marshal of the world the manager would snapshot.
func marshalWorld(t *testing.T, tw *testWorld) []byte {
	t.Helper()
	want, err := json.Marshal(&WorldSnapshot{
		TakenAtSeq: tw.jrnl.LastSeq(),
		SrcSeqs:    tw.jrnl.SrcSeqs(),
		Controller: tw.ctl.ExportState(),
		Master:     tw.master.ExportState(),
		Provider:   tw.provider.ExportState(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestSnapshotSpliceMatchesMarshal checks that the encoder's output,
// frozen records spliced from its cache, is byte-identical to
// json.Marshal of the same world.
//
// It first encodes the committed fixture, whose world sets every field
// of WorldSnapshot, ControllerState and ProviderState. The encoder writes
// those structs' framing by hand, so a field added to any of them must
// be set in the fixture, and then fails here until the encoder splices
// it. It then drives one Manager through a seeded sequence of worlds and
// checks every snapshot it writes, and that the cache holds exactly the
// frozen records of the newest snapshot.
func TestSnapshotSpliceMatchesMarshal(t *testing.T) {
	raw, err := os.ReadFile("testdata/world-snapshot.json")
	if err != nil {
		t.Fatal(err)
	}
	var ws WorldSnapshot
	if err := json.Unmarshal(raw, &ws); err != nil {
		t.Fatal(err)
	}
	requireAllFieldsSet(t, ws)
	requireAllFieldsSet(t, ws.Controller)
	requireAllFieldsSet(t, ws.Provider)
	want, err := json.Marshal(&ws)
	if err != nil {
		t.Fatal(err)
	}
	e := newSnapshotEncoder()
	for _, pass := range []string{"cold", "warm"} {
		got, err := e.encode(&ws)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("fixture, %s: encoding differs from json.Marshal\n got %s\nwant %s", pass, got, want)
		}
	}

	dir := t.TempDir()
	tw := newWorld(t, dir, Options{Mode: ModeStrict})
	w := newSpliceWorld(t, 28)
	for i := 0; i < 120; i++ {
		w.step()
		if i%25 == 24 {
			w.dropFrozen()
		}
		w.load(tw)
		if err := tw.m.SnapshotNow(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		got, _, err := wal.LatestSnapshot(dir)
		if err != nil {
			t.Fatal(err)
		}
		if want := marshalWorld(t, tw); !bytes.Equal(got, want) {
			t.Fatalf("step %d: spliced snapshot differs from json.Marshal\n got %s\nwant %s", i, got, want)
		}
		jobs, insts := w.frozen()
		if len(tw.m.enc.jobs) != jobs || len(tw.m.enc.insts) != insts {
			t.Fatalf("step %d: cache holds %d jobs and %d instances, the snapshot %d and %d",
				i, len(tw.m.enc.jobs), len(tw.m.enc.insts), jobs, insts)
		}
	}
	if err := tw.m.VerifyError(); err != nil {
		t.Fatalf("strict mode flagged a splice: %v", err)
	}
	for _, want := range []string{
		"planning", "provisioning", "running", "recovering", "succeeded", "missed-goal", "failed",
		"launched", "instance-terminated", "instance-failed",
		"segments=true", "segments=false", "limits=true", "limits=false",
		"fault=true", "fault=false", "src_seqs=true", "src_seqs=false",
	} {
		if !w.seen[want] {
			t.Errorf("the seeded sequence never covered %s", want)
		}
	}
}

// TestSnapshotEncodeErrors: a value encoding/json refuses fails the
// encoding as it fails json.Marshal, and a frozen record that failed is
// not cached.
func TestSnapshotEncodeErrors(t *testing.T) {
	for name, ws := range map[string]*WorldSnapshot{
		"live":   {Provider: cloud.ProviderState{ClockSec: math.NaN()}},
		"frozen": {Controller: cluster.ControllerState{Jobs: []cluster.JobState{{ID: "job-1", Status: cluster.StatusSucceeded, Cost: math.Inf(1)}}}},
	} {
		if _, err := json.Marshal(ws); err == nil {
			t.Fatalf("%s: json.Marshal accepted the world", name)
		}
		e := newSnapshotEncoder()
		if _, err := e.encode(ws); err == nil {
			t.Errorf("%s: encode accepted a world json.Marshal refuses", name)
		}
		if len(e.jobs) != 0 {
			t.Errorf("%s: a record that failed to encode was cached", name)
		}
	}
}

// TestStrictModeFlagsBadSplice: a frozen record that changed after it was
// cached — a broken invariant, not something the control plane does —
// makes strict mode report the mismatch.
func TestStrictModeFlagsBadSplice(t *testing.T) {
	tw := newWorld(t, t.TempDir(), Options{Mode: ModeStrict})
	w := newSpliceWorld(t, 1)
	for jobs, _ := w.frozen(); jobs == 0; jobs, _ = w.frozen() {
		w.step()
	}
	w.load(tw)
	if err := tw.m.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if err := tw.m.VerifyError(); err != nil {
		t.Fatalf("a faithful splice was flagged: %v", err)
	}
	for i := range w.cs.Jobs {
		if w.cs.Jobs[i].Status.Terminal() {
			w.cs.Jobs[i].Cost += 1
		}
	}
	w.load(tw)
	if err := tw.m.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if err := tw.m.VerifyError(); err == nil {
		t.Fatal("a stale cached record was not flagged")
	}
}

// TestSnapshotMetrics: one SnapshotNow adds one observation to the
// snapshot-duration histogram and sets the size gauge to its payload.
func TestSnapshotMetrics(t *testing.T) {
	dir := t.TempDir()
	tw := newWorld(t, dir, Options{})
	tw.emit("api", journal.JobSubmitted, 0)
	ro := replayObs()
	before := ro.seconds.Count()
	if err := tw.m.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	if got := ro.seconds.Count(); got != before+1 {
		t.Errorf("snapshot histogram count = %d, want %d", got, before+1)
	}
	payload, _, err := wal.LatestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := ro.bytes.Value(); got != float64(len(payload)) {
		t.Errorf("snapshot bytes gauge = %v, want %d", got, len(payload))
	}
}

// snapshotAllocCeiling bounds how many more objects a warm snapshot over
// 500 terminal jobs and their instances may allocate than one over 50.
// Frozen records cost no allocation once cached, so the measured
// difference is 0 objects (43 per snapshot at either size, on
// linux/amd64 with go1.24); the slack absorbs runtime noise.
const snapshotAllocCeiling = 10

// TestSnapshotAllocsIndependentOfHistory pins the splice's allocation
// profile: a snapshot's allocations do not grow with the number of
// finished jobs and instances it carries.
func TestSnapshotAllocsIndependentOfHistory(t *testing.T) {
	allocs := func(jobs int) float64 {
		tw := newWorld(t, t.TempDir(), Options{})
		w := newSpliceWorld(t, 2)
		for i := 1; i <= jobs; i++ {
			id := fmt.Sprintf("job-%d", i)
			w.cs.Jobs = append(w.cs.Jobs, cluster.JobState{
				ID: id, TraceID: fmt.Sprintf("trace-%06d", i), Seq: i, Workload: w.wl,
				Status:  cluster.StatusSucceeded,
				History: []cluster.JobStatus{cluster.StatusPlanning, cluster.StatusRunning, cluster.StatusSucceeded},
			})
			for k := 0; k < 2; k++ {
				w.ps.NextID++
				w.ps.Instances = append(w.ps.Instances, cloud.Instance{
					ID: fmt.Sprintf("i-%08x", w.ps.NextID), Type: w.typ,
					Tags:  map[string]string{"job": id, "trace": fmt.Sprintf("trace-%06d", i)},
					State: cloud.StateTerminated, TerminatedAt: float64(i),
				})
			}
		}
		w.cs.NextJob = jobs
		w.load(tw)
		if err := tw.m.SnapshotNow(); err != nil { // warm the cache
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if err := tw.m.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(50), allocs(500)
	t.Logf("allocs per snapshot: %.0f over 50 jobs, %.0f over 500", small, large)
	if large > small+snapshotAllocCeiling {
		t.Errorf("a snapshot over 500 finished jobs allocates %.0f objects, over 50 %.0f: more than %d apart",
			large, small, snapshotAllocCeiling)
	}
}

package cloud

import (
	"errors"
	"reflect"
	"testing"

	"cynthia/internal/obs/journal"
)

// manualClock is a settable provider clock for deterministic fault tests.
type manualClock struct{ now float64 }

func (c *manualClock) clock() float64     { return c.now }
func (c *manualClock) advance(dt float64) { c.now += dt }
func (c *manualClock) set(t float64)      { c.now = t }
func newFaultyProvider(fp FaultPlan) (*Provider, *manualClock) {
	clk := &manualClock{}
	p := NewProvider(DefaultCatalog(), clk.clock)
	p.SetFaultPlan(fp)
	return p, clk
}

func TestTransientLaunchErrorsAreSeededAndCapped(t *testing.T) {
	p, _ := newFaultyProvider(FaultPlan{Seed: 1, TransientRate: 1, MaxConsecutiveTransient: 2})
	for i := 0; i < 2; i++ {
		if _, err := p.Launch(M4XLarge, 1, nil); !errors.Is(err, ErrTransient) {
			t.Fatalf("launch %d: err = %v, want ErrTransient", i, err)
		}
	}
	// The consecutive cap guarantees forward progress even at rate 1.
	if _, err := p.Launch(M4XLarge, 1, nil); err != nil {
		t.Fatalf("launch after cap: %v", err)
	}
}

func TestTransientSequenceIsDeterministic(t *testing.T) {
	outcome := func() []bool {
		p, _ := newFaultyProvider(FaultPlan{Seed: 42, TransientRate: 0.5})
		var seq []bool
		for i := 0; i < 20; i++ {
			_, err := p.Launch(M4XLarge, 1, nil)
			seq = append(seq, err == nil)
		}
		return seq
	}
	a, b := outcome(), outcome()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("launch %d: run A ok=%v, run B ok=%v", i, a[i], b[i])
		}
	}
}

func TestScheduledPreemptionMovesInstanceToFailed(t *testing.T) {
	p, clk := newFaultyProvider(FaultPlan{Seed: 1, PreemptAtSec: 100, PreemptNth: 1})
	insts, err := p.Launch(M4XLarge, 3, map[string]string{"job": "j1"})
	if err != nil {
		t.Fatal(err)
	}
	victim := insts[1].ID

	id, at, ok := p.NextPreemption(map[string]string{"job": "j1"})
	if !ok || id != victim || at != 100 {
		t.Fatalf("NextPreemption = (%q, %v, %v), want (%q, 100, true)", id, at, ok, victim)
	}
	if _, _, ok := p.NextPreemption(map[string]string{"job": "other"}); ok {
		t.Error("NextPreemption matched a non-matching tag filter")
	}

	// Not due yet: everything still runs.
	clk.set(99)
	if got := p.RunningCount(M4XLarge); got != 3 {
		t.Fatalf("running at t=99: %d", got)
	}
	// Due: the revocation fires lazily on the next provider call.
	clk.set(150)
	failed := p.ApplyDueFaults()
	if len(failed) != 1 || failed[0].ID != victim {
		t.Fatalf("failed = %v", failed)
	}
	if failed[0].State != StateFailed || failed[0].TerminatedAt != 150 {
		t.Errorf("victim state=%v terminatedAt=%v", failed[0].State, failed[0].TerminatedAt)
	}
	if got := p.RunningCount(M4XLarge); got != 2 {
		t.Errorf("running after preemption: %d", got)
	}
	// Billing charges the victim only up to the revocation instant.
	clk.set(3600)
	perHour := failed[0].Type.PricePerHour
	want := 2*perHour + perHour*150/3600
	if got := p.Bill(); got < want*0.999 || got > want*1.001 {
		t.Errorf("bill = %v, want ~%v", got, want)
	}
	// Terminating a preempted instance is a no-op, not a double-decrement.
	if err := p.Terminate(victim); err != nil {
		t.Fatal(err)
	}
	if got := p.RunningCount(M4XLarge); got != 2 {
		t.Errorf("running after terminating failed instance: %d", got)
	}
	if _, _, ok := p.NextPreemption(nil); ok {
		t.Error("preemption still scheduled after firing")
	}
}

// TestWatchDeliversLifecycleEvents follows an instance's lifecycle through
// the journal attached with SetJournal: launched, then preempted at the
// scheduled revocation instant.
func TestWatchDeliversLifecycleEvents(t *testing.T) {
	p, clk := newFaultyProvider(FaultPlan{Seed: 1, PreemptAtSec: 10, PreemptNth: 0})
	jrnl := journal.New(16, journal.Deterministic())
	p.SetJournal(jrnl)
	insts, err := p.Launch(M4XLarge, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	clk.set(10)
	p.ApplyDueFaults()
	events := jrnl.Since(0)
	if len(events) != 2 {
		t.Fatalf("%d events, want 2: %+v", len(events), events)
	}
	id := journal.F("id", insts[0].ID)
	ev1, ev2 := events[0], events[1]
	if ev1.Type != journal.InstanceLaunched || ev1.Fields[0] != id {
		t.Errorf("first event = %+v, want launched %s", ev1, insts[0].ID)
	}
	if ev2.Type != journal.InstancePreempted || ev2.Fields[0] != id || ev2.At != 10 {
		t.Errorf("second event = %+v, want preempted %s at 10", ev2, insts[0].ID)
	}
}

func TestLaunchDelaySetsReadyAt(t *testing.T) {
	p, _ := newFaultyProvider(FaultPlan{Seed: 3, LaunchDelayMaxSec: 30})
	insts, err := p.Launch(M4XLarge, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range insts {
		d := inst.ReadyAt - inst.LaunchedAt
		if d < 0 || d >= 30 {
			t.Errorf("instance %s delay %v outside [0,30)", inst.ID, d)
		}
	}
	// Without a fault plan ReadyAt equals LaunchedAt.
	plain := NewProvider(DefaultCatalog(), func() float64 { return 7 })
	pi, err := plain.Launch(M4XLarge, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pi[0].ReadyAt != pi[0].LaunchedAt {
		t.Errorf("ReadyAt = %v, want LaunchedAt %v", pi[0].ReadyAt, pi[0].LaunchedAt)
	}
}

func TestRatePreemptionsAreDeterministic(t *testing.T) {
	run := func() []string {
		p, clk := newFaultyProvider(FaultPlan{Seed: 9, PreemptRate: 0.5, PreemptMinSec: 10, PreemptMaxSec: 50})
		if _, err := p.Launch(M4XLarge, 10, nil); err != nil {
			t.Fatal(err)
		}
		clk.set(1000)
		var ids []string
		for _, inst := range p.ApplyDueFaults() {
			ids = append(ids, inst.ID)
		}
		return ids
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("rate 0.5 over 10 instances preempted nothing")
	}
	if len(a) != len(b) {
		t.Fatalf("runs differ: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs differ at %d: %v vs %v", i, a, b)
		}
	}
}

// TestFaultStateFieldsOutsideSnapshot pins what faultState keeps beside
// its embedded FaultState. A new field fails here until someone decides
// whether a snapshot persists it.
func TestFaultStateFieldsOutsideSnapshot(t *testing.T) {
	derived := map[string]string{
		"rng": "re-seeded from Plan.Seed and advanced Draws times on restore",
	}
	typ := reflect.TypeOf(faultState{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Anonymous && f.Type == reflect.TypeOf(FaultState{}) {
			continue
		}
		if _, ok := derived[f.Name]; !ok {
			t.Errorf("faultState.%s is neither in FaultState nor derived on restore", f.Name)
		}
		delete(derived, f.Name)
	}
	for name := range derived {
		t.Errorf("allowlisted faultState.%s no longer exists", name)
	}
}

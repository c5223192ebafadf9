package cloud

// Fault injection for the simulated IaaS control plane. Real clouds are
// not the failure-free abstraction the rest of the stack would like:
// launch calls bounce with transient "insufficient capacity right now"
// errors, instances come up late, and spot-market instances are revoked
// mid-run ("Characterizing and Modeling Distributed Training with
// Transient Cloud GPU Servers" measures revocations dominating deadline
// and cost outcomes). A FaultPlan makes the Provider reproduce those
// behaviours deterministically from a seed, so the cluster controller's
// recovery path can be driven — and regression-tested — without a real
// cloud account.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"cynthia/internal/obs/journal"
)

// ErrTransient is returned by Launch for injected transient control-plane
// failures. A transient error is expected to clear on retry: callers back
// off and retry, and an error that outlives the retry budget fails the
// launch like any other.
var ErrTransient = errors.New("cloud: transient launch failure")

// FaultPlan configures deterministic fault injection. All randomness
// derives from Seed: the same plan driven by the same call sequence
// produces the same transient errors, delays, and preemptions.
type FaultPlan struct {
	// Seed drives every random draw of the plan.
	Seed int64
	// TransientRate is the probability in [0,1) that a Launch call fails
	// with ErrTransient before any instance is created.
	TransientRate float64
	// MaxConsecutiveTransient caps back-to-back injected transient
	// failures so retrying callers always make progress (default 2).
	MaxConsecutiveTransient int
	// LaunchDelayMaxSec, when > 0, delays instance readiness by a uniform
	// draw from [0, LaunchDelayMaxSec): the instance exists (and bills)
	// at launch but its ReadyAt lands later, modeling slow provisioning.
	LaunchDelayMaxSec float64
	// PreemptRate is the probability that a launched instance is
	// spot-revoked at some point of its life.
	PreemptRate float64
	// PreemptMinSec and PreemptMaxSec bracket the uniform draw of the
	// revocation instant, in provider-clock seconds after launch.
	PreemptMinSec float64
	PreemptMaxSec float64
	// PreemptAtSec, when > 0, schedules one targeted preemption: the
	// PreemptNth instance (0-based, counted from the plan's
	// installation) is revoked at absolute provider-clock second
	// PreemptAtSec. This is the hook behind the -preempt-at CLI flag and
	// the deterministic end-to-end recovery tests.
	PreemptAtSec float64
	PreemptNth   int
	// KillMasterAtSec schedules master-process kills at the given
	// absolute provider-clock seconds, consumed in order: the controller
	// polls MasterKillDue at its durability barriers and crashes (in
	// simulation, unwinds with ErrMasterKilled; in a real deployment the
	// analogue is SIGKILL) when the clock passes the next entry. Two
	// entries with the same time model a double crash: the second kill
	// fires during the replay of the first.
	KillMasterAtSec []float64
}

// IsZero reports whether the plan injects nothing at all.
func (fp FaultPlan) IsZero() bool {
	return fp.Seed == 0 && fp.TransientRate == 0 && fp.MaxConsecutiveTransient == 0 &&
		fp.LaunchDelayMaxSec == 0 && fp.PreemptRate == 0 &&
		fp.PreemptMinSec == 0 && fp.PreemptMaxSec == 0 &&
		fp.PreemptAtSec == 0 && fp.PreemptNth == 0 && len(fp.KillMasterAtSec) == 0
}

// faultState is the live injector behind a FaultPlan: its snapshot form
// plus the RNG, which restore rebuilds from Plan.Seed and Draws. Guarded
// by the provider mutex.
type faultState struct {
	FaultState
	rng *rand.Rand
}

func (f *faultState) maxConsec() int {
	if f.Plan.MaxConsecutiveTransient > 0 {
		return f.Plan.MaxConsecutiveTransient
	}
	return 2
}

// float64 draws from the plan's RNG, counting the draw so a snapshot can
// record the stream position and a restore can replay to it.
func (f *faultState) float64() float64 {
	f.Draws++
	return f.rng.Float64()
}

// onLaunch decides the fate of one Launch call: an injected transient
// error, or success with a readiness delay in seconds.
func (f *faultState) onLaunch() (delay float64, err error) {
	if f.Plan.TransientRate > 0 && f.Consec < f.maxConsec() && f.float64() < f.Plan.TransientRate {
		f.Consec++
		return 0, fmt.Errorf("%w (injected, %d consecutive)", ErrTransient, f.Consec)
	}
	f.Consec = 0
	if f.Plan.LaunchDelayMaxSec > 0 {
		delay = f.float64() * f.Plan.LaunchDelayMaxSec
	}
	return delay, nil
}

// onInstance decides whether a freshly launched instance will be
// preempted, returning the absolute revocation time.
func (f *faultState) onInstance(now float64) (at float64, ok bool) {
	ord := f.Launched
	f.Launched++
	if f.Plan.PreemptAtSec > 0 && ord == f.Plan.PreemptNth {
		return f.Plan.PreemptAtSec, true
	}
	if f.Plan.PreemptRate > 0 && f.float64() < f.Plan.PreemptRate {
		lo, hi := f.Plan.PreemptMinSec, f.Plan.PreemptMaxSec
		if hi < lo {
			hi = lo
		}
		d := lo
		if hi > lo {
			d = lo + float64(f.float64()*(hi-lo))
		}
		return now + d, true
	}
	return 0, false
}

// ensureFaultLocked returns the live fault injector, creating a
// zero-plan one when none is installed. Spot launches need somewhere to
// schedule price-crossing revocations even when no FaultPlan was set; a
// zero plan never draws from the RNG, so creating it cannot perturb any
// deterministic fault schedule. Callers hold p.mu.
func (p *Provider) ensureFaultLocked() *faultState {
	if p.fault == nil {
		p.fault = &faultState{
			FaultState: FaultState{PreemptAt: make(map[string]float64)},
			rng:        rand.New(rand.NewSource(0)),
		}
	}
	return p.fault
}

// SetFaultPlan installs (or, with a zero plan, removes) fault injection.
// Instances already running keep any revocation already scheduled.
func (p *Provider) SetFaultPlan(fp FaultPlan) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if fp.IsZero() {
		p.fault = nil
		return
	}
	prior := map[string]float64{}
	if p.fault != nil {
		prior = p.fault.PreemptAt
	}
	p.fault = &faultState{
		FaultState: FaultState{Plan: fp, PreemptAt: prior},
		rng:        rand.New(rand.NewSource(fp.Seed)),
	}
}

// MasterKillDue reports whether a scheduled master kill has come due,
// consuming it. The controller polls this at each durability barrier; a
// true return means "the master process dies here". Kills are consumed
// in schedule order and never re-fire: after a restart the harness
// restores the consumed count (SetMasterKillsTaken) rather than the
// snapshot's value, so a restored clock earlier than the kill instant
// cannot crash-loop.
func (p *Provider) MasterKillDue() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	f := p.fault
	if f == nil || f.KillsTaken >= len(f.Plan.KillMasterAtSec) {
		return false
	}
	if p.clock() < f.Plan.KillMasterAtSec[f.KillsTaken] {
		return false
	}
	f.KillsTaken++
	return true
}

// SetMasterKillsTaken overrides the consumed-kill count. Restart
// harnesses call this after restoring a snapshot: the snapshot's world
// predates the kill that crashed it, so the count must come from the
// number of observed crashes, not from the snapshot.
func (p *Provider) SetMasterKillsTaken(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fault == nil {
		return
	}
	if n < 0 {
		n = 0
	}
	p.fault.KillsTaken = n
}

// SetJournal installs (or, with nil, removes) the flight-recorder journal
// the provider appends instance lifecycle events to. Correlation IDs are
// read from the instance's "trace" and "job" tags, so events line up with
// the controller's per-job timeline without any extra plumbing.
func (p *Provider) SetJournal(j *journal.Journal) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.jrnl = j
}

// journalLocked appends one lifecycle event (journal.InstanceLaunched,
// InstancePreempted or InstanceTerminated) to the flight recorder.
// Callers hold p.mu.
func (p *Provider) journalLocked(typ journal.Type, inst *Instance, at float64) {
	if p.jrnl == nil {
		return
	}
	fields := []journal.Field{
		journal.F("id", inst.ID),
		journal.F("type", inst.Type.Name),
	}
	if typ == journal.InstanceLaunched {
		fields = append(fields,
			journal.Ffloat("delay_sec", inst.ReadyAt-inst.LaunchedAt),
			journal.Ffloat("price_per_hour", inst.Type.PricePerHour))
		if inst.Spot {
			// Spot-only fields, appended conditionally so on-demand launch
			// events keep their exact historical byte encoding (the
			// flat-trace bit-equivalence relation compares journal bytes).
			spotPrice := 0.0
			if p.market != nil {
				spotPrice, _ = p.market.SpotPrice(inst.Type.Name, at)
			}
			fields = append(fields,
				journal.Fbool("spot", true),
				journal.Ffloat("spot_price_per_hour", spotPrice),
				journal.Ffloat("bid_per_hour", inst.BidPerHour))
		}
	} else {
		dur := at - inst.LaunchedAt
		if dur < 0 {
			dur = 0
		}
		fields = append(fields,
			journal.Ffloat("uptime_sec", dur),
			journal.Ffloat("cost_usd", p.instanceCostLocked(inst, at)))
		if inst.Spot {
			fields = append(fields, journal.Fbool("spot", true))
		}
	}
	p.jrnl.Append(journal.Event{
		Source: "cloud",
		Trace:  inst.Tags["trace"],
		Job:    inst.Tags["job"],
		Type:   typ,
		At:     at,
		Fields: fields,
	})
}

// failLocked moves a running instance to StateFailed (spot revocation).
// Callers hold p.mu.
func (p *Provider) failLocked(inst *Instance, now float64) {
	if inst.State != StateRunning {
		return
	}
	inst.State = StateFailed
	inst.TerminatedAt = now
	if p.fault != nil {
		delete(p.fault.PreemptAt, inst.ID)
	}
	provObs().preempted.Inc()
	p.journalLocked(journal.InstancePreempted, inst, now)
}

// applyDueLocked fires every scheduled revocation whose time has come,
// in instance-ID order for determinism. Callers hold p.mu.
func (p *Provider) applyDueLocked(now float64) {
	if p.fault == nil || len(p.fault.PreemptAt) == 0 {
		return
	}
	var due []string
	for id, at := range p.fault.PreemptAt {
		if at <= now {
			due = append(due, id)
		}
	}
	sort.Strings(due)
	for _, id := range due {
		if inst, ok := p.instances[id]; ok {
			p.failLocked(inst, now)
		} else {
			delete(p.fault.PreemptAt, id)
		}
	}
}

// ApplyDueFaults fires every revocation scheduled at or before the
// current provider-clock time and returns snapshots of all failed
// instances (newly failed and prior), sorted by ID.
func (p *Provider) ApplyDueFaults() []Instance {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.applyDueLocked(p.clock())
	var out []Instance
	for _, inst := range p.instances {
		if inst.State == StateFailed {
			out = append(out, snapshot(inst))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Preempt revokes a running instance immediately, as a spot reclaim
// would. Preempting an already failed or terminated instance is a no-op.
func (p *Provider) Preempt(id string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	inst, ok := p.instances[id]
	if !ok {
		return fmt.Errorf("cloud: no such instance %q", id)
	}
	p.failLocked(inst, p.clock())
	return nil
}

// NextPreemption reports the earliest scheduled revocation among running
// instances whose tags include every entry of filter. It is the
// simulation's world oracle: the training simulator needs to know when
// to kill a docker, which a real cloud would communicate as a preemption
// notice (EC2's two-minute spot warning) instead.
func (p *Provider) NextPreemption(filter map[string]string) (id string, at float64, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.applyDueLocked(p.clock())
	if p.fault == nil {
		return "", 0, false
	}
	best := math.Inf(1)
	for iid, t := range p.fault.PreemptAt {
		inst, live := p.instances[iid]
		if !live || inst.State != StateRunning || !matchTags(inst.Tags, filter) {
			continue
		}
		if t < best || (t == best && iid < id) {
			best, id = t, iid
		}
	}
	if id == "" {
		return "", 0, false
	}
	return id, best, true
}

// Now returns the current provider-clock time in seconds.
func (p *Provider) Now() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.clock()
}
